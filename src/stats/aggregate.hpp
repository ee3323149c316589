// Aggregation of RunMetrics across repeated runs (seed averaging).
//
// The accumulator is internally synchronised so concurrent workers may
// add() into a shared instance.  Note the determinism contract, though:
// floating-point accumulation is order-sensitive, so callers that need
// bit-identical means regardless of worker count (the RunPlan executor's
// guarantee) must add() results in a fixed order — in practice, collect
// per-run results into indexed slots first and fold them in index order
// after the parallel phase.
#pragma once

#include <cstddef>
#include <mutex>

#include "stats/metrics.hpp"

namespace vprobe::stats {

class MetricsAccumulator {
 public:
  /// Fold one run in.  The first run contributes the identifying fields
  /// (scheduler, workload); `completed` is AND-ed across runs.
  void add(const RunMetrics& m);

  /// Arithmetic mean of everything added so far.  With a single run added,
  /// returns that run exactly (bit-identical, no divide).
  RunMetrics mean() const;

 private:
  mutable std::mutex mu_;
  std::size_t n_ = 0;
  RunMetrics acc_;  // running sums; identity fields from the first add()
};

}  // namespace vprobe::stats
