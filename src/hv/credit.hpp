// The Xen Credit scheduler (the paper's baseline), modelled on Xen 4.0.1:
//
//  * every VCPU gets credits proportionally to its (equal) weight each 30 ms
//    accounting pass; a running VCPU burns 100 credits per 10 ms tick;
//  * credits >= 0 -> UNDER priority, credits < 0 -> OVER;
//  * a VCPU waking from sleep while UNDER is boosted (BOOST) so interactive
//    work preempts CPU hogs; BOOST decays at the next tick;
//  * an idle PCPU steals runnable work from its peers, scanning them from a
//    random starting PCPU with no notion of NUMA distance — the exact
//    behaviour Section II-B blames for the >80% remote-access ratios of
//    Figure 1.
//
// Subclasses override the two NUMA-relevant policy points: steal() (the
// idle-time load balance — Algorithm 2 in vProbe/LB) and the sampling hook
// machinery added by the analyzer-based schedulers.
#pragma once

#include "hv/scheduler.hpp"

namespace vprobe::hv {

class CreditScheduler : public Scheduler {
 public:
  struct Params {
    double credits_per_tick = 100.0;  ///< burned per tick by the running VCPU
    double credit_cap = 300.0;        ///< clamp on accumulated credit
    double credit_floor = -300.0;     ///< clamp on debt
  };

  CreditScheduler() = default;
  explicit CreditScheduler(Params params) : params_(params) {}

  const char* name() const override { return "Credit"; }

  void vcpu_created(Vcpu& vcpu) override;
  void vcpu_wake(Vcpu& vcpu) override;
  void requeue_preempted(Vcpu& vcpu) override;
  Decision do_schedule(Pcpu& pcpu) override;
  void tick(Pcpu& pcpu) override;
  void accounting() override;

  const Params& params() const { return params_; }

 protected:
  /// Idle-time load balance: pick (and dequeue) a runnable VCPU from a peer
  /// queue, taking only candidates whose priority is strictly stronger than
  /// `weaker_than`.  Pass a value past kOver to accept anything runnable.
  /// Credit draws a random start PCPU (one hv rng() draw per call, queued
  /// work or not) and scans peers in (start + offset) % n order, skipping
  /// empty queues via the hypervisor's occupancy set — NUMA-oblivious.
  virtual Vcpu* steal(Pcpu& thief, int weaker_than);

  /// Priority from credits (UNDER/OVER); leaves BOOST alone unless `demote`.
  void refresh_priority(Vcpu& vcpu, bool demote_boost) const;

  /// Insert into the run queue of vcpu.pcpu.
  void enqueue(Vcpu& vcpu);

  Params params_{};
};

}  // namespace vprobe::hv
