// Shared helpers for hypervisor/scheduler tests: a scriptable guest thread
// and small scenario builders.
#pragma once

#include <memory>
#include <vector>

#include "hv/credit.hpp"
#include "hv/hypervisor.hpp"
#include "hv/work.hpp"

namespace vprobe::test {

/// A scriptable VcpuWork: runs with a fixed profile, finishes after
/// `total_instructions`, optionally blocking every `burst` instructions.
class FakeWork : public hv::VcpuWork {
 public:
  double total_instructions = 1e18;
  double burst = 0.0;  ///< 0 = never block
  double rpti = 0.0;
  double solo_miss = 0.0;
  double sensitivity = 0.0;
  double working_set = 0.0;
  std::vector<double> fractions;       ///< empty = run-node local
  sim::Time block_for = sim::Time::zero();  ///< 0 = block until woken

  double executed = 0.0;
  int bursts_completed = 0;
  bool finished = false;

  hv::BurstPlan next_burst(sim::Time) override {
    hv::BurstPlan plan;
    double remaining = total_instructions - executed;
    if (burst > 0.0) {
      remaining = std::min(remaining, burst - since_block_);
    }
    plan.instructions = std::max(remaining, 1.0);
    plan.profile.rpti = rpti;
    plan.profile.solo_miss = solo_miss;
    plan.profile.miss_sensitivity = sensitivity;
    plan.profile.working_set_bytes = working_set;
    plan.profile.node_fractions = fractions;
    return plan;
  }

  hv::Outcome advance(double instructions, sim::Time) override {
    executed += instructions;
    since_block_ += instructions;
    if (executed >= total_instructions) {
      finished = true;
      return {hv::OutcomeKind::kFinished};
    }
    if (burst > 0.0 && since_block_ >= burst - 0.5) {
      since_block_ = 0.0;
      ++bursts_completed;
      if (block_for > sim::Time::zero()) {
        return {hv::OutcomeKind::kBlockTimed, block_for};
      }
      return {hv::OutcomeKind::kBlockUntilWake};
    }
    return {hv::OutcomeKind::kContinue};
  }

 private:
  double since_block_ = 0.0;
};

/// Minimal round-robin scheduler with no stealing and no priorities —
/// for unit tests that probe hypervisor mechanics in isolation.
class FifoScheduler : public hv::Scheduler {
 public:
  const char* name() const override { return "fifo-test"; }
  void vcpu_created(hv::Vcpu&) override {}
  void vcpu_wake(hv::Vcpu& v) override { hv_->pcpu(v.pcpu).queue.insert(v); }
  void requeue_preempted(hv::Vcpu& v) override {
    hv_->pcpu(v.pcpu).queue.insert(v);
  }
  hv::Decision do_schedule(hv::Pcpu& p) override {
    return {p.queue.pop_front()};
  }
};

/// Hypervisor on the paper machine with the FIFO test scheduler.
inline std::unique_ptr<hv::Hypervisor> make_fifo_hv(std::uint64_t seed = 1) {
  hv::Hypervisor::Config cfg;
  cfg.seed = seed;
  return std::make_unique<hv::Hypervisor>(cfg, std::make_unique<FifoScheduler>());
}

/// Hypervisor on the paper machine with a plain Credit scheduler.
inline std::unique_ptr<hv::Hypervisor> make_credit_hv(std::uint64_t seed = 1) {
  hv::Hypervisor::Config cfg;
  cfg.seed = seed;
  return std::make_unique<hv::Hypervisor>(
      cfg, std::make_unique<hv::CreditScheduler>());
}

constexpr std::int64_t kTestGB = 1024ll * 1024 * 1024;

/// All VCPUs of a domain, in index order.
inline std::vector<hv::Vcpu*> domain_vcpus(hv::Domain& domain) {
  std::vector<hv::Vcpu*> vcpus;
  for (std::size_t i = 0; i < domain.num_vcpus(); ++i) {
    vcpus.push_back(&domain.vcpu(i));
  }
  return vcpus;
}

}  // namespace vprobe::test
