// AutoNUMA-style comparator (beyond the paper's evaluated set).
//
// Linux's NUMA balancing periodically samples a task's page accesses
// through induced faults, then (a) migrates the task toward the node
// holding most of its pages and (b) migrates pages toward the node the
// task faults from.  The paper's related-work section positions vProbe
// against exactly this family of OS-level schemes (Blagodurov et al.,
// Dashti et al.), noting they are memory-locality-greedy with no notion of
// *balancing shared-cache contention* across nodes.
//
// This comparator reproduces that behaviour at the hypervisor level: per
// sampling period every VCPU is greedily pulled to its dominant-access
// node (no evenness constraint — the defining contrast with Algorithm 1),
// and a rate-limited page-migration pass pulls pages the other way for
// VCPUs that stay put.  Stealing remains Credit's (NUMA-oblivious).
// Expected standing: fewer remote accesses than Credit, but LLC pile-ups
// on popular nodes keep it below vProbe.
#pragma once

#include <memory>

#include "core/page_policy.hpp"
#include "hv/credit.hpp"
#include "pmu/sampler.hpp"

namespace vprobe::core {

class AutoNumaScheduler : public hv::CreditScheduler {
 public:
  struct Options {
    sim::Time sampling_period = sim::Time::sec(1);
  };

  AutoNumaScheduler() = default;
  explicit AutoNumaScheduler(Options options) : options_(options) {}

  const char* name() const override { return "AutoNUMA"; }

  void attach(hv::Hypervisor& hv) override;
  void vcpu_created(hv::Vcpu& vcpu) override;
  void vcpu_retired(hv::Vcpu& vcpu) override;

  std::uint64_t task_migrations() const { return task_migrations_; }

 private:
  void on_sampling_period();

  Options options_{};
  PagePolicy page_policy_{};
  std::unique_ptr<pmu::Sampler> sampler_;
  std::uint64_t task_migrations_ = 0;
};

}  // namespace vprobe::core
