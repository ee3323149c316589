// Page-migration policy — the paper's second "future work" item
// (Section VI), integrated with the scheduler.
//
// At each sampling-period boundary, after the partitioner has placed the
// memory-intensive VCPUs, this policy moves data *toward* the VCPUs: for
// every memory-intensive VCPU whose registered regions are not already
// concentrated on the node it now runs on, a bounded number of chunks is
// migrated there.  Rate limiting matters: the paper's argument is exactly
// that page migration is expensive while VCPU migration is cheap, so the
// policy must amortise page moves across periods rather than bulk-copy.
#pragma once

#include "hv/hypervisor.hpp"

namespace vprobe::core {

class PagePolicy {
 public:
  /// Cap on chunks moved per period across the whole machine.
  static constexpr int kMachineBudgetPerPeriod = 64;

  struct Options {
    /// Only memory-intensive VCPUs are worth moving data for.
    bool memory_intensive_only = true;
  };

  struct Result {
    int vcpus_considered = 0;
    int chunks_moved = 0;
    sim::Time cost;
  };

  PagePolicy() = default;
  explicit PagePolicy(Options options) : options_(options) {}

  /// Run one rebalancing pass.  The caller charges `Result::cost`.
  Result run(hv::Hypervisor& hv) const;

 private:
  Options options_{};
};

}  // namespace vprobe::core
