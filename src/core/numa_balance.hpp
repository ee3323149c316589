// NUMA-aware load balance (Section III-D, Algorithm 2).
//
// When a PCPU becomes idle it steals, in order of preference:
//
//   * from PCPUs of its own node first, then remote nodes (nextNode());
//   * within a node, from the PCPU with the heaviest workload (most VCPUs
//     queued) first;
//   * from that run queue, the runnable VCPU with the *smallest* LLC access
//     pressure — moving a low-pressure VCPU barely perturbs the LLC
//     contention balance the partitioner established.
#pragma once

#include <vector>

#include "hv/hypervisor.hpp"

namespace vprobe::core {

class NumaAwareBalancer {
 public:
  struct Stats {
    std::uint64_t local_steals = 0;
    std::uint64_t remote_steals = 0;
  };

  /// Algorithm 2.  Returns a dequeued VCPU for `thief`, or nullptr when no
  /// run queue on the machine has an eligible runnable VCPU.
  /// `weaker_than` keeps Credit's fairness semantics: only VCPUs whose
  /// priority is strictly stronger than it are eligible (pass
  /// CreditPrio::kOver + 1 to accept anything — the idle-PCPU case).
  /// `local_only` restricts the scan to the thief's own node — vProbe uses
  /// it for Credit's fairness steal so that chasing credit imbalance never
  /// drags a memory-intensive VCPU away from its node (the periodical
  /// partitioner re-balances across nodes instead).
  hv::Vcpu* steal(hv::Hypervisor& hv, hv::Pcpu& thief,
                  int weaker_than = static_cast<int>(hv::CreditPrio::kOver) + 1,
                  bool local_only = false);

  const Stats& stats() const { return stats_; }

  /// LLC access pressure as seen by the balancer: Perfctr-Xen refreshes a
  /// VCPU's counters at every context switch (Section IV-B), so the steal
  /// decision can use the *current* sampling window rather than waiting for
  /// the 1 s period boundary.  Falls back to the last period's value for a
  /// VCPU that has not run in this window yet.
  static double live_pressure(const hv::Vcpu& vcpu);

 private:
  Stats stats_;
  /// Algorithm 2's loadList, reused across steals so a steal never
  /// allocates once the buffer has grown to a node's width.
  std::vector<hv::Pcpu*> load_list_;
};

}  // namespace vprobe::core
