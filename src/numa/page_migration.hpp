// Page (chunk) migration — the paper's "future work" extension.
//
// Section VI of the paper proposes combining VCPU scheduling with page
// migration.  This module implements that extension: given a Region and the
// node its accessor now prefers, it moves a bounded number of chunks toward
// that node per invocation and reports the time cost, which callers charge
// to the migrating VCPU.  The cost/benefit trade-off (migration is expensive,
// VCPU moves are cheap) is exactly what the ablation bench explores.
#pragma once

#include <cstdint>

#include "numa/vm_memory.hpp"
#include "sim/time.hpp"

namespace vprobe::numa {

class PageMigrator {
 public:
  /// Cost of moving one chunk.  4 MiB over ~10 GB/s plus TLB shootdowns
  /// lands in the few-hundred-microsecond range.
  static constexpr sim::Time kCostPerChunk = sim::Time::us(400);
  /// Upper bound on chunks moved per rebalance() call (rate limiting).
  static constexpr int kMaxChunksPerRound = 16;

  struct Result {
    int chunks_moved = 0;
    sim::Time cost = sim::Time::zero();
  };

  /// Move up to kMaxChunksPerRound chunks of `region` onto `target`.
  /// Chunks are scanned in address order; homeless chunks are skipped.
  static Result rebalance(VmMemory& memory, const Region& region, NodeId target);
};

}  // namespace vprobe::numa
