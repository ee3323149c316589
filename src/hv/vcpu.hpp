// Virtual CPU state.
//
// Mirrors Xen's `struct csched_vcpu` augmented exactly as Section IV-B of
// the paper describes: the analyzer-produced fields `node_affinity`,
// `llc_pressure`, and `vcpu_type` live here, plus BRM's `uncore_penalty`.
// The struct is deliberately open (public members): it is the shared record
// that the hypervisor, schedulers and analyzers all manipulate, like its
// C counterpart in Xen.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "hv/work.hpp"
#include "numa/topology.hpp"
#include "perf/warmth.hpp"
#include "pmu/vcpu_pmu.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace vprobe::hv {

class Domain;

/// kPaused is an administrative hold (Hypervisor::pause_domain): the VCPU is
/// off every run queue and cannot be woken until resumed; wakes that arrive
/// while paused are latched in `wake_pending`.
enum class VcpuState { kRunnable, kRunning, kBlocked, kDone, kPaused };

/// Credit-scheduler priority classes, strongest first.
enum class CreditPrio : int { kBoost = 0, kUnder = 1, kOver = 2 };

/// Equation (3)'s classification by LLC access pressure.
enum class VcpuType { kLlcFriendly = 0, kLlcFitting = 1, kLlcThrashing = 2 };

const char* to_string(VcpuState s);
const char* to_string(CreditPrio p);
const char* to_string(VcpuType t);

/// Memory-intensive per the paper = LLC-thrashing or LLC-fitting.
inline bool is_memory_intensive(VcpuType t) { return t != VcpuType::kLlcFriendly; }

class Vcpu {
 public:
  Vcpu(int id, Domain* domain, int index_in_domain)
      : id_(id), domain_(domain), index_in_domain_(index_in_domain) {}

  Vcpu(const Vcpu&) = delete;
  Vcpu& operator=(const Vcpu&) = delete;

  int id() const { return id_; }
  Domain* domain() const { return domain_; }
  int index_in_domain() const { return index_in_domain_; }
  std::string name() const;

  void bind_work(VcpuWork* work) { work_ = work; }
  VcpuWork* work() const { return work_; }

  bool runnable() const { return state == VcpuState::kRunnable; }
  bool running() const { return state == VcpuState::kRunning; }

  /// Participates in credit distribution (exists and has not exited).
  bool active() const { return state != VcpuState::kDone; }

  // -- Scheduling state (owned by hypervisor + scheduler) -------------------
  VcpuState state = VcpuState::kBlocked;
  numa::PcpuId pcpu = numa::kInvalidPcpu;          ///< where queued / running
  numa::PcpuId last_ran_pcpu = numa::kInvalidPcpu; ///< for warmth bookkeeping

  /// Hard affinity bitmask over PCPUs (Xen's vcpu-pin).  Schedulers must
  /// never run or queue this VCPU on a PCPU outside the mask.  All ones
  /// means "every PCPU", those past bit 63 included; any other mask names
  /// PCPUs 0..63 only.
  static constexpr std::uint64_t kAnyPcpu = ~0ull;
  std::uint64_t affinity_mask = kAnyPcpu;
  bool allowed_on(numa::PcpuId p) const {
    const auto bit = static_cast<std::uint64_t>(p);  // negative -> huge
    return p >= 0 &&
           (affinity_mask == kAnyPcpu || (bit < 64 && (affinity_mask >> bit) & 1u));
  }
  void pin_to(numa::PcpuId p) {
    if (p < 0 || p >= 64) {
      throw std::invalid_argument("Vcpu::pin_to: PCPU " + std::to_string(p) +
                                  " is outside the 64-bit affinity mask");
    }
    affinity_mask = 1ull << p;
  }
  bool is_pinned() const { return affinity_mask != kAnyPcpu; }
  CreditPrio priority = CreditPrio::kUnder;
  double credits = 0.0;
  bool in_runqueue = false;
  /// Set when a scheduler tick catches this VCPU running (Xen samples
  /// activity at ticks: VCPUs never seen running are "inactive", earn no
  /// credits, and do not dilute their domain's share).  Cleared at each
  /// accounting pass.
  bool credit_active = false;
  /// A wake arrived while the VCPU was paused; replayed on resume.
  bool wake_pending = false;
  /// The pending timed-wake event from a kBlockTimed outcome.  Retirement
  /// cancels it so no event ever fires against a dead VCPU (generation
  /// handles make the cancel safe even after the event fired).
  sim::EventHandle wake_timer;

  // -- Measurement ----------------------------------------------------------
  pmu::VcpuPmu pmu;
  perf::CacheWarmth warmth;

  // -- Fields the paper adds to csched_vcpu (Section IV-B) ------------------
  numa::NodeId node_affinity = numa::kInvalidNode;  ///< Equation (1)
  double llc_pressure = 0.0;                        ///< Equation (2)
  VcpuType vcpu_type = VcpuType::kLlcFriendly;      ///< Equation (3)

  // -- BRM comparator state --------------------------------------------------
  double uncore_penalty = 0.0;

  // -- Statistics -------------------------------------------------------------
  std::uint64_t migrations = 0;
  std::uint64_t cross_node_migrations = 0;
  std::uint64_t wakeups = 0;
  sim::Time cpu_time = sim::Time::zero();

 private:
  int id_;
  Domain* domain_;
  int index_in_domain_;
  VcpuWork* work_ = nullptr;
};

}  // namespace vprobe::hv
