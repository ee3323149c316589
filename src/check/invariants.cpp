#include "check/invariants.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "hv/credit.hpp"
#include "hv/domain.hpp"
#include "hv/hypervisor.hpp"
#include "hv/pcpu.hpp"
#include "numa/vm_memory.hpp"

namespace vprobe::check {

namespace {

/// Stop recording (but keep counting) after this many violations.
constexpr std::size_t kMaxViolations = 64;
/// Slack for floating-point credit comparisons.
constexpr double kEpsilon = 1e-6;

std::string describe(const hv::Vcpu& v) {
  std::ostringstream os;
  os << v.name() << " (vcpu " << v.id() << ", state " << to_string(v.state)
     << ", pcpu " << v.pcpu << ")";
  return os.str();
}

}  // namespace

InvariantChecker::~InvariantChecker() { detach(); }

void InvariantChecker::attach(hv::Hypervisor& hv) { attach(hv, true); }

void InvariantChecker::attach(hv::Hypervisor& hv, bool engine_observer) {
  detach();
  hv_ = &hv;
  if (engine_observer) hv.engine().set_observer(this);
  hv.set_observer(this);
}

void InvariantChecker::detach() {
  if (hv_ == nullptr) return;
  if (hv_->engine().observer() == this) hv_->engine().set_observer(nullptr);
  if (hv_->observer() == this) hv_->set_observer(nullptr);
  hv_ = nullptr;
}

void InvariantChecker::report(std::string what) {
  ++total_violations_;
  if (violations_.size() < kMaxViolations) {
    sim::Time when = hv_ != nullptr ? hv_->now() : sim::Time::zero();
    if (!scope_.empty()) what = "[" + scope_ + "] " + what;
    violations_.push_back(Violation{std::move(what), when});
  }
}

void InvariantChecker::expect_ok() const {
  if (ok()) return;
  std::ostringstream os;
  os << "invariant checker: " << total_violations_ << " violation(s)";
  for (std::size_t i = 0; i < violations_.size() && i < 8; ++i) {
    os << "\n  [" << violations_[i].when.nanos() << " ns] "
       << violations_[i].what;
  }
  throw std::runtime_error(os.str());
}

void InvariantChecker::check_now() {
  if (hv_ == nullptr) return;
  ++checks_run_;
  check_runqueues();
  check_credit_legality();
  check_memory();
}

// -- engine hook --------------------------------------------------------------

void InvariantChecker::on_event(sim::Time when, std::uint64_t seq) {
  ++events_seen_;
  if (have_last_event_) {
    if (when < last_event_time_) {
      std::ostringstream os;
      os << "engine: event time went backwards (" << when.nanos() << " ns after "
         << last_event_time_.nanos() << " ns)";
      report(os.str());
    } else if (when == last_event_time_ && seq <= last_event_seq_) {
      std::ostringstream os;
      os << "engine: FIFO order broken at " << when.nanos() << " ns (seq " << seq
         << " after seq " << last_event_seq_ << ")";
      report(os.str());
    }
  }
  have_last_event_ = true;
  last_event_time_ = when;
  last_event_seq_ = seq;
}

// -- hypervisor hooks ---------------------------------------------------------

void InvariantChecker::after_tick(hv::Hypervisor& hv, hv::Pcpu& pcpu) {
  (void)pcpu;
  if (hv_ != &hv) return;  // ignore stray hypervisors
  check_now();
}

void InvariantChecker::before_accounting(hv::Hypervisor& hv) {
  if (hv_ != &hv) return;
  credits_before_.clear();
  for (const hv::Vcpu* v : hv.all_vcpus()) credits_before_.push_back(v->credits);
}

void InvariantChecker::after_accounting(hv::Hypervisor& hv) {
  if (hv_ != &hv) return;
  const auto* credit =
      dynamic_cast<const hv::CreditScheduler*>(&hv.scheduler());
  auto vcpus = hv.all_vcpus();
  if (credit != nullptr && credits_before_.size() == vcpus.size()) {
    const auto& p = credit->params();
    // Budget of one accounting pass: each PCPU's running VCPU burns
    // credits_per_tick per tick, and the accounting pass redistributes at
    // most what the machine burned since the last pass.
    const double ticks_per_acct =
        hv::Hypervisor::kAccountingPeriod / hv::Hypervisor::kTickPeriod;
    const double credit_total = p.credits_per_tick * ticks_per_acct *
                                static_cast<double>(hv.pcpus().size());
    double granted = 0.0;
    for (std::size_t i = 0; i < vcpus.size(); ++i) {
      const hv::Vcpu& v = *vcpus[i];
      const double delta = v.credits - credits_before_[i];
      if (delta < -kEpsilon) {
        std::ostringstream os;
        os << "credit: accounting debited " << describe(v) << " by " << -delta
           << " credits (accounting may only grant)";
        report(os.str());
      }
      if (v.active() &&
          (v.credits < p.credit_floor - kEpsilon ||
           v.credits > p.credit_cap + kEpsilon)) {
        std::ostringstream os;
        os << "credit: accounting left " << describe(v) << " with "
           << v.credits << " credits, outside [" << p.credit_floor << ", "
           << p.credit_cap << "]";
        report(os.str());
      }
      if (delta > 0.0) granted += delta;
    }
    if (granted > credit_total + kEpsilon) {
      std::ostringstream os;
      os << "credit: accounting granted " << granted
         << " credits, more than the machine budget " << credit_total;
      report(os.str());
    }
  }
  credits_before_.clear();
  check_now();
}

void InvariantChecker::on_domain_created(hv::Hypervisor& hv, hv::Domain& dom) {
  if (hv_ != &hv) return;
  // The allocator may hand a new VCPU the storage address of a retired one;
  // that address is alive again.  Global ids are monotonic (never reused),
  // so dead_vcpu_ids_ only grows.
  for (std::size_t i = 0; i < dom.num_vcpus(); ++i) {
    dead_vcpus_.erase(reinterpret_cast<std::uintptr_t>(&dom.vcpu(i)));
  }
}

void InvariantChecker::before_domain_destroy(hv::Hypervisor& hv,
                                             hv::Domain& dom) {
  if (hv_ != &hv) return;
  numa::MemoryManager& mm = hv.memory_manager();
  free_before_destroy_.clear();
  for (int n = 0; n < mm.num_nodes(); ++n) {
    free_before_destroy_.push_back(mm.free_chunks(n));
  }
  destroy_census_ = dom.memory().node_census();
  pending_dead_ids_.clear();
  for (std::size_t i = 0; i < dom.num_vcpus(); ++i) {
    pending_dead_ids_.push_back(dom.vcpu(i).id());
    dead_vcpus_.insert(reinterpret_cast<std::uintptr_t>(&dom.vcpu(i)));
  }
}

void InvariantChecker::after_domain_destroy(hv::Hypervisor& hv) {
  if (hv_ != &hv) return;
  // Commit the ids only now: destroy_domain itself legitimately emits
  // kSwitchOut/kRetire events naming the dying VCPUs.
  for (int id : pending_dead_ids_) dead_vcpu_ids_.insert(id);
  pending_dead_ids_.clear();
  numa::MemoryManager& mm = hv.memory_manager();
  for (int n = 0; n < mm.num_nodes(); ++n) {
    const auto un = static_cast<std::size_t>(n);
    const std::int64_t before = un < free_before_destroy_.size()
                                    ? free_before_destroy_[un]
                                    : 0;
    const std::int64_t homed =
        un < destroy_census_.size() ? destroy_census_[un] : 0;
    const std::int64_t now_free = mm.free_chunks(n);
    if (now_free != before + homed) {
      std::ostringstream os;
      os << "teardown: node " << n << " freed " << (now_free - before)
         << " chunks on domain destroy but the domain homed " << homed
         << " there (freed bytes must return to their origin node)";
      report(os.str());
    }
  }
  free_before_destroy_.clear();
  destroy_census_.clear();
  check_now();
}

void InvariantChecker::on_trace_event(hv::Hypervisor& hv,
                                      trace::EventKind kind, int vcpu_id) {
  if (hv_ != &hv || vcpu_id < 0) return;
  if (dead_vcpu_ids_.count(vcpu_id) != 0) {
    std::ostringstream os;
    os << "teardown: event " << trace::to_string(kind)
       << " fired against retired vcpu " << vcpu_id;
    report(os.str());
  }
}

// -- sweeps -------------------------------------------------------------------

void InvariantChecker::check_runqueues() {
  // How many run queues each VCPU appears on (and where each is current);
  // keyed by pointer because global ids are not dense across domains.
  std::unordered_map<const hv::Vcpu*, int> queued;
  std::unordered_map<const hv::Vcpu*, const hv::Pcpu*> running_on;
  for (hv::Pcpu& p : hv_->pcpus()) {
    // Steals visit only occupied queues, so a stale bit either hides
    // stealable work (bit clear) or wastes a scan (bit set).
    if (hv_->occupied_pcpus().test(p.id) == p.queue.empty()) {
      report("runqueue: pcpu " + std::to_string(p.id) + "'s occupancy bit is " +
             (p.queue.empty() ? "set" : "clear") + " but its queue holds " +
             std::to_string(p.queue.size()) + " VCPU(s)");
    }
    for (const hv::Vcpu* v : p.queue.items()) {
      ++queued[v];
      if (v->state != hv::VcpuState::kRunnable) {
        report("runqueue: " + describe(*v) + " is queued on pcpu " +
               std::to_string(p.id) + " but is not Runnable");
      }
      if (v->pcpu != p.id) {
        report("runqueue: " + describe(*v) + " sits on pcpu " +
               std::to_string(p.id) + "'s queue but records pcpu " +
               std::to_string(v->pcpu));
      }
      if (!v->in_runqueue) {
        report("runqueue: " + describe(*v) +
               " is queued but in_runqueue is false");
      }
      if (!v->allowed_on(p.id)) {
        report("runqueue: " + describe(*v) + " is queued on pcpu " +
               std::to_string(p.id) + " outside its affinity mask");
      }
    }
    if (p.current != nullptr) {
      const hv::Vcpu& v = *p.current;
      if (!running_on.emplace(&v, &p).second) {
        report("runqueue: " + describe(v) + " is current on two PCPUs");
      }
      if (v.state != hv::VcpuState::kRunning) {
        report("runqueue: " + describe(v) + " is current on pcpu " +
               std::to_string(p.id) + " but is not Running");
      }
      if (v.pcpu == p.id) {
        if (!v.allowed_on(p.id)) {
          report("runqueue: " + describe(v) + " runs on pcpu " +
                 std::to_string(p.id) + " outside its affinity mask");
        }
      } else {
        // migrate_to_node() retargets vcpu.pcpu immediately but descheduling
        // is asynchronous (Xen's IPI), so a running VCPU may legitimately
        // point at its destination for a few events.  The destination must
        // at least be a real, affinity-legal PCPU.
        if (v.pcpu < 0 || v.pcpu >= static_cast<int>(hv_->pcpus().size()) ||
            !v.allowed_on(v.pcpu)) {
          report("runqueue: " + describe(v) + " running on pcpu " +
                 std::to_string(p.id) + " is retargeted to invalid pcpu " +
                 std::to_string(v.pcpu));
        }
      }
    }
  }
  for (const hv::Vcpu* v : hv_->all_vcpus()) {
    const int n = [&] {
      auto it = queued.find(v);
      return it == queued.end() ? 0 : it->second;
    }();
    if (n > 1) {
      report("runqueue: " + describe(*v) + " appears on " + std::to_string(n) +
             " run queues");
    }
    switch (v->state) {
      case hv::VcpuState::kRunnable:
        if (n != 1) {
          report("runqueue: " + describe(*v) + " is Runnable but on " +
                 std::to_string(n) + " run queues");
        }
        break;
      case hv::VcpuState::kRunning: {
        if (running_on.find(v) == running_on.end()) {
          report("runqueue: " + describe(*v) +
                 " is Running but is not current on any pcpu");
        }
        if (n != 0) {
          report("runqueue: " + describe(*v) + " is Running but also queued");
        }
        break;
      }
      case hv::VcpuState::kBlocked:
      case hv::VcpuState::kPaused:
      case hv::VcpuState::kDone:
        if (n != 0) {
          report("runqueue: " + describe(*v) + " is " + to_string(v->state) +
                 " but sits on a run queue");
        }
        if (v->in_runqueue) {
          report("runqueue: " + describe(*v) + " is " + to_string(v->state) +
                 " but in_runqueue is true");
        }
        break;
    }
  }
  if (!dead_vcpus_.empty()) {
    // No queue item or current pointer may reference retired storage: the
    // domain that owned it is gone and the memory freed.
    for (hv::Pcpu& p : hv_->pcpus()) {
      for (const hv::Vcpu* v : p.queue.items()) {
        if (dead_vcpus_.count(reinterpret_cast<std::uintptr_t>(v)) != 0) {
          report("teardown: pcpu " + std::to_string(p.id) +
                 "'s run queue holds a retired VCPU");
        }
      }
      if (p.current != nullptr &&
          dead_vcpus_.count(reinterpret_cast<std::uintptr_t>(p.current)) != 0) {
        report("teardown: pcpu " + std::to_string(p.id) +
               " is running a retired VCPU");
      }
    }
  }
}

void InvariantChecker::check_credit_legality() {
  if (dynamic_cast<const hv::CreditScheduler*>(&hv_->scheduler()) == nullptr) {
    return;  // non-credit scheduler (e.g. a test FIFO) — nothing to validate
  }
  for (const hv::Vcpu* v : hv_->all_vcpus()) {
    if (!v->active()) continue;
    // UNDER/BOOST mean credits >= 0, OVER means credits < 0.  BOOST can
    // coexist with any non-negative balance (wake boost), so only flag the
    // sign contradictions.
    if (v->priority == hv::CreditPrio::kOver && v->credits > kEpsilon) {
      std::ostringstream os;
      os << "credit: " << describe(*v) << " is OVER with " << v->credits
         << " credits (should be UNDER)";
      report(os.str());
    }
    if (v->priority != hv::CreditPrio::kOver && v->credits < -kEpsilon) {
      std::ostringstream os;
      os << "credit: " << describe(*v) << " is " << to_string(v->priority)
         << " with " << v->credits << " credits (should be OVER)";
      report(os.str());
    }
  }
}

void InvariantChecker::check_memory() {
  numa::MemoryManager& mm = hv_->memory_manager();
  const int nodes = mm.num_nodes();
  std::vector<std::int64_t> census(static_cast<std::size_t>(nodes), 0);
  bool all_eager = true;
  for (const auto& dom : hv_->domains()) {
    const numa::VmMemory& vm = dom->memory();
    if (vm.policy() == numa::PlacementPolicy::kFirstTouch) all_eager = false;
    const auto vm_census = vm.node_census();
    for (int n = 0; n < nodes && n < static_cast<int>(vm_census.size()); ++n) {
      census[static_cast<std::size_t>(n)] += vm_census[static_cast<std::size_t>(n)];
    }
  }
  for (int n = 0; n < nodes; ++n) {
    const std::int64_t used = mm.used_chunks(n);
    const std::int64_t free = mm.free_chunks(n);
    if (free < 0 || used < 0 || free > mm.capacity_chunks(n)) {
      std::ostringstream os;
      os << "memory: node " << n << " pool corrupt (free " << free << ", used "
         << used << ", capacity " << mm.capacity_chunks(n)
         << ") — leak or double-free";
      report(os.str());
    }
    // First-touch chunks have no home until touched, so the domain census
    // can undercount the pool; for all-eager placements they must agree.
    const std::int64_t homed = census[static_cast<std::size_t>(n)];
    if (all_eager ? homed != used : homed > used) {
      std::ostringstream os;
      os << "memory: node " << n << " has " << used
         << " chunks reserved but domains home " << homed << " there";
      report(os.str());
    }
  }
}

// -- ScopedCheck --------------------------------------------------------------

ScopedCheck::ScopedCheck(hv::Hypervisor& hv, bool enabled) {
  if (!enabled) return;
  checker_ = std::make_unique<InvariantChecker>();
  checker_->attach(hv);
}

ScopedCheck::~ScopedCheck() {
  if (checker_) checker_->detach();
}

void ScopedCheck::expect_ok() {
  if (!checker_) return;
  checker_->check_now();  // final sweep
  checker_->expect_ok();
}

}  // namespace vprobe::check
