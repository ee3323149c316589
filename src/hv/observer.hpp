// Hook interface the hypervisor drives for cross-cutting observers — today
// the runtime invariant checker (src/check).  The hooks fire at the two
// accounting granularities the checker validates: after every scheduler
// tick and around every accounting pass.  An unattached observer costs one
// predictable branch per call site.
#pragma once

#include "trace/event.hpp"

namespace vprobe::hv {

class Hypervisor;
class Domain;
struct Pcpu;

class HvObserver {
 public:
  virtual ~HvObserver() = default;

  /// The scheduler's periodic tick on `pcpu` just ran (credits burned,
  /// BOOST demoted) — per-PCPU state is consistent and checkable.
  virtual void after_tick(Hypervisor& hv, Pcpu& pcpu) = 0;

  /// The global accounting pass is about to run / just ran.  The pair lets
  /// an observer snapshot credits before and validate the deltas after.
  virtual void before_accounting(Hypervisor& hv) = 0;
  virtual void after_accounting(Hypervisor& hv) = 0;

  // -- Domain lifecycle (defaults keep existing observers source-compatible) --

  /// `dom` and its VCPUs exist and are registered with the scheduler.
  virtual void on_domain_created(Hypervisor& hv, Domain& dom) {
    (void)hv; (void)dom;
  }

  /// `dom` is fully intact but about to be torn down — the pair lets an
  /// observer snapshot per-node free counts and the domain's placement
  /// census, then verify after_domain_destroy() that every freed byte went
  /// back to the node it came from.
  virtual void before_domain_destroy(Hypervisor& hv, Domain& dom) {
    (void)hv; (void)dom;
  }
  virtual void after_domain_destroy(Hypervisor& hv) { (void)hv; }

  /// Every trace-level event, fired from Hypervisor::emit() — lets the
  /// checker prove no event ever fires against a destroyed VCPU.
  virtual void on_trace_event(Hypervisor& hv, trace::EventKind kind,
                              int vcpu_id) {
    (void)hv; (void)kind; (void)vcpu_id;
  }
};

}  // namespace vprobe::hv
