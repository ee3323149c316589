// BRM — Bias Random vCPU Migration (Rao et al., HPCA'13), the paper's
// comparator scheduler (Section V-A2).
//
// BRM characterises each VCPU by its *uncore penalty* — the cost of
// reaching the uncore memory subsystem, dominated by remote DRAM accesses —
// and performs randomised migrations biased toward reducing the system-wide
// penalty.  Its known weakness, which the vProbe paper leans on, is that
// every penalty update takes a system-wide lock; with more than ~8 VCPUs the
// serialisation and cache-line bouncing costs swamp the placement gains.
//
// The lock is modelled as an M/D/1 server: updates arrive whenever a VCPU
// wakes, whenever a PCPU reschedules, and once per VCPU per sampling period;
// each update costs the lock's service time s plus a queueing wait
// s*rho/(2*(1-rho)) derived from the smoothed update arrival rate.  Both are charged to the
// PCPU where the update runs (kLockWait), so BRM's overhead shows up in
// guest runtime exactly as the paper describes.
#pragma once

#include <memory>

#include "hv/credit.hpp"
#include "numa/rate_tracker.hpp"
#include "pmu/sampler.hpp"

namespace vprobe::core {

class BrmScheduler : public hv::CreditScheduler {
 public:
  struct Options {
    sim::Time sampling_period = sim::Time::sec(1);
  };

  BrmScheduler() = default;
  explicit BrmScheduler(Options options) : options_(options) {}

  const char* name() const override { return "BRM"; }

  void attach(hv::Hypervisor& hv) override;
  void vcpu_created(hv::Vcpu& vcpu) override;
  void vcpu_retired(hv::Vcpu& vcpu) override;
  hv::Decision do_schedule(hv::Pcpu& pcpu) override;

  std::uint64_t lock_updates() const { return lock_updates_; }

  /// Expected uncore penalty of `vcpu` if it ran on `node`, from its last
  /// sampling window: miss intensity times the remote-access fraction.
  static double uncore_penalty(const hv::Vcpu& vcpu, numa::NodeId node);

 private:
  /// One serialised penalty update: pay the lock, refresh vcpu.uncore_penalty.
  void locked_update(hv::Vcpu& vcpu, hv::Pcpu* where);

  void on_sampling_period();

  Options options_{};
  std::unique_ptr<pmu::Sampler> sampler_;
  numa::RateTracker update_rate_{sim::Time::ms(100)};
  std::uint64_t lock_updates_ = 0;
};

}  // namespace vprobe::core
