// Runtime invariant checker for the hypervisor simulation.
//
// The paper's claims rest on the simulator conserving physical quantities
// (instructions, memory chunks) and on the Credit-family schedulers obeying
// Xen's accounting rules; a silent regression in hv/ or numa/ would flow
// straight into every figure.  This subsystem validates those properties
// continuously while a simulation runs:
//
//  * engine:   event timestamps never decrease; equal-time events fire in
//              FIFO sequence order (the engine's determinism contract);
//  * hv/credit: credits stay inside [floor, cap], priority matches the
//              UNDER/OVER sign rule, the accounting pass only grants (never
//              debits) and never grants more than the machine's credit
//              budget per pass;
//  * run queues: every VCPU is running on exactly one PCPU, queued on
//              exactly one run queue, or blocked — never duplicated, never
//              queued in a state other than Runnable, never on a PCPU its
//              affinity mask forbids;
//  * memory:   per-node used/free chunk counts stay non-negative and match
//              the sum of every domain's placement census (catches leaks
//              and double-frees that NDEBUG builds would let through);
//  * teardown: destroying a domain returns every freed chunk to the node
//              it was homed on, and no event is ever traced against a VCPU
//              that has been retired (dynamic-scenario rules).
//
// The checker attaches to one Hypervisor as its engine observer and
// HvObserver; with no checker attached each hook site costs one predictable
// branch.  Violations are recorded, not thrown, so a test can run a
// deliberately broken scheduler and assert the checker fired; expect_ok()
// escalates to an exception for production runs (--checks).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "hv/observer.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace vprobe::hv {
class Hypervisor;
struct Pcpu;
}  // namespace vprobe::hv

namespace vprobe::check {

/// One detected invariant violation.
struct Violation {
  std::string what;  ///< human-readable description
  sim::Time when;    ///< simulated time it was detected
};

class InvariantChecker final : public sim::Engine::Observer,
                               public hv::HvObserver {
 public:
  InvariantChecker() = default;
  ~InvariantChecker() override;

  /// Register as `hv`'s engine observer and hypervisor observer.  The
  /// checker must outlive the hypervisor or detach() first; declare it
  /// before the hypervisor (or call detach()) in owning scopes.
  void attach(hv::Hypervisor& hv);
  /// Per-machine attachment for fleets sharing one engine: the engine has a
  /// single observer slot, so exactly one host's checker passes
  /// `engine_observer = true`; the others still get every HvObserver hook
  /// (credit/page/byte conservation per host).
  void attach(hv::Hypervisor& hv, bool engine_observer);
  void detach();

  /// Label prefixed to every violation ("[host0] ..."), so a fleet of
  /// checkers stays attributable per machine.
  void set_scope(std::string scope) { scope_ = std::move(scope); }
  const std::string& scope() const { return scope_; }

  /// One-shot full sweep (run queues, credits, memory) of the attached
  /// hypervisor.
  void check_now();

  bool ok() const { return total_violations_ == 0; }
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t total_violations() const { return total_violations_; }
  std::uint64_t checks_run() const { return checks_run_; }
  std::uint64_t events_seen() const { return events_seen_; }

  /// Throw std::runtime_error describing the first violations, if any.
  void expect_ok() const;

  // -- sim::Engine::Observer --------------------------------------------------
  void on_event(sim::Time when, std::uint64_t seq) override;

  // -- hv::HvObserver ---------------------------------------------------------
  void after_tick(hv::Hypervisor& hv, hv::Pcpu& pcpu) override;
  void before_accounting(hv::Hypervisor& hv) override;
  void after_accounting(hv::Hypervisor& hv) override;
  void on_domain_created(hv::Hypervisor& hv, hv::Domain& dom) override;
  void before_domain_destroy(hv::Hypervisor& hv, hv::Domain& dom) override;
  void after_domain_destroy(hv::Hypervisor& hv) override;
  void on_trace_event(hv::Hypervisor& hv, trace::EventKind kind,
                      int vcpu_id) override;

 private:
  void check_runqueues();
  void check_credit_legality();
  void check_memory();
  void report(std::string what);

  hv::Hypervisor* hv_ = nullptr;
  std::string scope_;
  bool have_last_event_ = false;
  sim::Time last_event_time_ = sim::Time::zero();
  std::uint64_t last_event_seq_ = 0;
  std::vector<double> credits_before_;
  // Teardown bookkeeping: snapshot of per-node free counts and the dying
  // domain's census taken in before_domain_destroy, compared after.  Retired
  // VCPU ids stage through pending_dead_ids_ because destroy_domain itself
  // legitimately emits kRetire/kSwitchOut events naming them.
  std::vector<std::int64_t> free_before_destroy_;
  std::vector<std::int64_t> destroy_census_;
  std::vector<int> pending_dead_ids_;
  std::unordered_set<std::uintptr_t> dead_vcpus_;  ///< retired storage addresses
  std::unordered_set<int> dead_vcpu_ids_;  ///< ids never reused (monotonic)
  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t checks_run_ = 0;
  std::uint64_t events_seen_ = 0;
};

/// RAII wrapper for run-integrated checking (RunConfig::checks): attaches a
/// checker when `enabled`, detaches on destruction.  expect_ok() runs a
/// final full sweep and throws on any violation; inert when disabled.
class ScopedCheck {
 public:
  ScopedCheck(hv::Hypervisor& hv, bool enabled);
  ~ScopedCheck();
  ScopedCheck(const ScopedCheck&) = delete;
  ScopedCheck& operator=(const ScopedCheck&) = delete;

  void expect_ok();
  InvariantChecker* checker() { return checker_.get(); }

 private:
  std::unique_ptr<InvariantChecker> checker_;
};

}  // namespace vprobe::check
