// Hypervisor overhead accounting ("overhead time", Section V-C1).
//
// The paper measures the fraction of execution time spent in (a) PMU data
// collection and (b) the periodical-partitioning pass.  We track those two
// buckets plus the balancing scan, BRM's lock waits, and raw context-switch
// cost, so Table III can be reproduced and the BRM lock-contention story is
// quantified rather than asserted.
#pragma once

#include <array>
#include <cstdint>

#include "sim/time.hpp"

namespace vprobe::hv {

enum class OverheadBucket : int {
  kPmuCollection = 0,
  kPartitioning,
  kBalancing,
  kLockWait,
  kContextSwitch,
  kCount,
};

class OverheadLedger {
 public:
  void record(OverheadBucket bucket, sim::Time cost) {
    buckets_[static_cast<std::size_t>(bucket)] += cost;
    ++counts_[static_cast<std::size_t>(bucket)];
  }

  sim::Time total() const {
    sim::Time t = sim::Time::zero();
    for (auto b : buckets_) t += b;
    return t;
  }

  /// The paper's "overhead time": PMU collection + partitioning only.
  sim::Time paper_overhead() const {
    return buckets_[static_cast<std::size_t>(OverheadBucket::kPmuCollection)] +
           buckets_[static_cast<std::size_t>(OverheadBucket::kPartitioning)];
  }

  sim::Time bucket(OverheadBucket b) const {
    return buckets_[static_cast<std::size_t>(b)];
  }
  std::uint64_t count(OverheadBucket b) const {
    return counts_[static_cast<std::size_t>(b)];
  }

  void reset() {
    buckets_.fill(sim::Time::zero());
    counts_.fill(0);
  }

 private:
  std::array<sim::Time, static_cast<std::size_t>(OverheadBucket::kCount)> buckets_{};
  std::array<std::uint64_t, static_cast<std::size_t>(OverheadBucket::kCount)> counts_{};
};

}  // namespace vprobe::hv
