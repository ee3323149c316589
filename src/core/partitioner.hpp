// VCPU periodical partitioning (Section III-C, Algorithm 1).
//
// At every sampling-period boundary, all memory-intensive VCPUs (LLC-T and
// LLC-FI) are reassigned across the NUMA nodes evenly, preferring each
// VCPU's local node:
//
//   while unassigned VCPUs remain:
//     MIN-NODE <- node with fewest reassigned VCPUs
//     Type     <- LLC-T while any unassigned LLC-T remains, else LLC-FI
//     vc  <- head of groupOfVc(Type, MIN-NODE) if non-empty,
//            else head of the largest groupOfVc(Type, *)
//     migrate(vc, MIN-NODE); mark vc reassigned
//
// LLC-FR VCPUs are left to the default (Credit) strategy.
#pragma once

#include <deque>
#include <vector>

#include "hv/hypervisor.hpp"
#include "sim/time.hpp"

namespace vprobe::core {

class PeriodicalPartitioner {
 public:
  /// Bookkeeping cost per memory-intensive VCPU considered.
  static constexpr sim::Time kPerVcpuCost = sim::Time::ns(150);

  struct Result {
    int considered = 0;        ///< memory-intensive VCPUs partitioned
    int reassigned = 0;        ///< assignments made (== considered)
    int cross_node_moves = 0;  ///< assignments that changed the VCPU's node
    sim::Time cost;            ///< "overhead time" contribution
  };

  /// Run Algorithm 1 over all active VCPUs of `hv`.
  /// Does not charge overhead itself — the caller owns that policy.
  Result partition(hv::Hypervisor& hv) const;
};

}  // namespace vprobe::core
