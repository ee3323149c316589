// Scheduler interface — the hook set a VCPU scheduler implements, mirroring
// the shape of Xen's `struct scheduler` ops table.
//
// The Hypervisor drives the machinery (context switches, slice timing,
// blocking, accounting timers); the Scheduler owns policy: run-queue
// placement on wake, next-VCPU selection, credit bookkeeping, and — the part
// vProbe changes — what an idle PCPU steals and where VCPUs get reassigned
// each sampling period.
#pragma once

#include "hv/pcpu.hpp"
#include "hv/vcpu.hpp"

namespace vprobe::hv {

class Hypervisor;

/// What do_schedule() decided: which VCPU to run (for one Credit slice).
struct Decision {
  Vcpu* vcpu = nullptr;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual const char* name() const = 0;

  /// Called once, after the Hypervisor is fully constructed and before any
  /// domain exists.  Schedulers that need timers (sampling periods) or
  /// machine state set them up here.
  virtual void attach(Hypervisor& hv) { hv_ = &hv; }

  /// A new VCPU appeared (still blocked; it becomes schedulable on wake).
  virtual void vcpu_created(Vcpu& vcpu) = 0;

  /// `vcpu` became runnable: choose a PCPU and enqueue it.  The Hypervisor
  /// handles tickling (poking idlers / preemption) afterwards.
  virtual void vcpu_wake(Vcpu& vcpu) = 0;

  /// `vcpu` blocked or finished (already off the run queues).
  virtual void vcpu_sleep(Vcpu& vcpu) {(void)vcpu;}

  /// `vcpu` is being permanently removed (domain destruction or hot-unplug);
  /// it is already off the run queues and no longer in all_vcpus().  Drop
  /// any registered references — sampler PMU registrations in particular.
  virtual void vcpu_retired(Vcpu& vcpu) {(void)vcpu;}

  /// A preempted-or-expired VCPU must go back to a run queue.
  virtual void requeue_preempted(Vcpu& vcpu) = 0;

  /// Pick the next VCPU for `pcpu` (may steal from peers).  The returned
  /// VCPU must already be dequeued and have vcpu.pcpu == pcpu.id.
  virtual Decision do_schedule(Pcpu& pcpu) = 0;

  /// Periodic per-PCPU tick (Xen: every 10 ms) — burn credits, demote BOOST.
  virtual void tick(Pcpu& pcpu) {(void)pcpu;}

  /// Periodic global accounting (Xen: every 30 ms) — redistribute credits.
  virtual void accounting() {}

 protected:
  Hypervisor* hv_ = nullptr;
};

}  // namespace vprobe::hv
