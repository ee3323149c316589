// The vProbe scheduler: Credit + PMU data analyzer + VCPU periodical
// partitioning + NUMA-aware load balance (the full system of Section III).
//
// The two mechanisms can be disabled independently, which is how the
// paper's ablations are built: VCPU-P = partitioning only, LB = NUMA-aware
// balance only (see vcpu_p_sched.hpp / lb_sched.hpp).
#pragma once

#include <memory>

#include "core/analyzer.hpp"
#include "core/dynamic_bounds.hpp"
#include "core/numa_balance.hpp"
#include "core/page_policy.hpp"
#include "core/partitioner.hpp"
#include "hv/credit.hpp"
#include "pmu/sampler.hpp"

namespace vprobe::core {

class VprobeScheduler : public hv::CreditScheduler {
 public:
  struct Options {
    bool enable_partitioning = true;
    bool enable_numa_balance = true;
    /// The paper's sampling period (1 s; swept in Figure 8).
    sim::Time sampling_period = sim::Time::sec(1);
    /// Future-work extension: adapt the Equation (3) bounds at runtime.
    bool dynamic_bounds = false;
    /// Future-work extension: migrate data toward memory-intensive VCPUs
    /// after partitioning (rate-limited; see PagePolicy).
    bool page_migration = false;
  };

  VprobeScheduler() = default;
  explicit VprobeScheduler(Options options) : options_(options) {}

  const char* name() const override { return "vProbe"; }

  void attach(hv::Hypervisor& hv) override;
  void vcpu_created(hv::Vcpu& vcpu) override;
  void vcpu_retired(hv::Vcpu& vcpu) override;

  const Options& options() const { return options_; }
  const PmuDataAnalyzer& analyzer() const { return analyzer_; }
  const NumaAwareBalancer& balancer() const { return balancer_; }
  std::uint64_t partition_rounds() const { return partition_rounds_; }
  std::uint64_t partition_moves() const { return partition_moves_; }

 protected:
  /// Idle-time steal: Algorithm 2 when enabled, Credit's scan otherwise.
  /// The fairness steal (local head is OVER, UNDER waiting elsewhere) keeps
  /// Credit semantics in all variants.
  hv::Vcpu* steal(hv::Pcpu& thief, int weaker_than) override;

  /// Period-boundary work: analyze all VCPUs, then partition.
  virtual void on_sampling_period();

  Options options_{};
  PmuDataAnalyzer analyzer_{};

 private:
  PeriodicalPartitioner partitioner_{};
  NumaAwareBalancer balancer_{};
  PagePolicy page_policy_{};
  std::unique_ptr<pmu::Sampler> sampler_;
  std::uint64_t partition_rounds_ = 0;
  std::uint64_t partition_moves_ = 0;
};

}  // namespace vprobe::core
