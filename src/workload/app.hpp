// Guest-thread framework shared by all workload models.
//
// ComputeThread implements the hypervisor's VcpuWork contract for a single
// guest thread driven by an AppProfile: it executes a fixed instruction
// budget split into locality phases (each phase works on its own slice of
// the thread's data region, so a long-running app's memory node affinity
// drifts — the staleness effect behind Figure 8), and stops at configurable
// burst boundaries where subclasses inject blocking behaviour (barriers for
// NPB, request queues for servers).
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "hv/hypervisor.hpp"
#include "hv/work.hpp"
#include "sim/rng.hpp"
#include "workload/profile.hpp"

namespace vprobe::wl {

class ComputeThread : public hv::VcpuWork {
 public:
  /// Relative amplitude of per-burst variation in memory behaviour (RPTI,
  /// miss rate).  Real access streams are bursty: a 100 ms PMU window
  /// easily reads 15% off the long-run average, a 1 s window does not — the
  /// effect behind Figure 8's short-period penalty.
  static constexpr double kBurstiness = 0.15;

  struct Init {
    const AppProfile* profile = nullptr;
    numa::VmMemory* memory = nullptr;   ///< the owning VM's memory
    numa::Region region;                ///< this thread's data region
    /// Optional scattered per-phase regions (a guest app's heap and mmap
    /// areas land all over guest-physical memory, so successive phases can
    /// live on different NUMA nodes).  When non-empty this overrides
    /// `phases`, and `region` serves as the phase-independent shared data.
    std::vector<numa::Region> phase_regions;
    double total_instructions = 0.0;    ///< kFinished after this many
    int phases = 1;                     ///< locality phases over the run
    /// Fraction of accesses going to the whole region regardless of phase
    /// (shared data); the rest goes to the current phase's sub-slice.
    double shared_fraction = 0.25;
    /// Natural stopping points (on_burst_end) every this many instructions;
    /// 0 = no stops (pure compute until done).
    double burst_instructions = 0.0;
    std::string name = "thread";
  };

  explicit ComputeThread(Init init);

  /// Attach to the VCPU that runs this thread (needed to know the current
  /// node for first-touch placement).
  void bind(hv::Hypervisor& hv, hv::Vcpu& vcpu);

  hv::Vcpu* vcpu() const { return vcpu_; }
  const std::string& name() const { return name_; }

  double executed_instructions() const { return executed_; }
  double total_instructions() const { return total_; }
  double progress() const { return total_ > 0 ? executed_ / total_ : 0.0; }
  bool finished() const { return finished_; }
  bool stopped() const { return stopped_; }
  int current_phase() const;

  /// Request a clean shutdown: the thread retires at its next advance()
  /// without running the finish listeners (it did not complete its work).
  /// Safe in any state — a blocked or paused thread simply never reports
  /// kFinished because it never advances again; destroy_domain handles it.
  void stop() { stopped_ = true; }

  /// Invoked once, in registration order, when the thread retires its last
  /// instruction.  Multiple listeners are supported so user code can
  /// observe completion without clobbering the owning app's bookkeeping.
  void add_on_finish(std::function<void(sim::Time)> listener) {
    finish_listeners_.push_back(std::move(listener));
  }

  // -- VcpuWork ----------------------------------------------------------------
  hv::BurstPlan next_burst(sim::Time now) override;
  hv::Outcome advance(double instructions, sim::Time now) override;

 protected:
  /// Called when `burst_instructions` have been consumed since the last
  /// stop.  Default: keep running.  Subclasses block here.
  virtual hv::Outcome on_burst_end(sim::Time now) {
    (void)now;
    return {hv::OutcomeKind::kContinue};
  }

  /// Reset the burst countdown (e.g. after the subclass changed the batch).
  void set_burst_budget(double instructions) {
    burst_budget_ = instructions;
    burst_done_ = 0.0;
  }

  hv::Hypervisor* hv_ = nullptr;

 private:
  /// The node this thread's VCPU currently runs on (for first-touch).
  numa::NodeId current_node() const;

  /// Recompute frac_buf_ for the current phase.
  void refresh_fractions();

  /// The data the current phase works on.
  numa::Region phase_region(int phase) const;

  const AppProfile* profile_;
  numa::VmMemory* memory_;
  numa::Region region_;
  std::vector<numa::Region> phase_regions_;
  double total_;
  int phases_;
  double shared_fraction_;
  std::string name_;

  hv::Vcpu* vcpu_ = nullptr;
  std::vector<std::function<void(sim::Time)>> finish_listeners_;
  sim::Rng burst_rng_;

  double executed_ = 0.0;
  double burst_budget_ = 0.0;  ///< 0 = unbounded
  double burst_done_ = 0.0;
  bool finished_ = false;
  bool stopped_ = false;
  int cached_phase_ = -1;
  std::uint64_t cached_placement_version_ = ~0ull;
  std::array<double, 8> frac_buf_{};
};

/// Carve a per-phase sub-region out of `region` (equal slices).
numa::Region phase_slice(const numa::Region& region, int phase, int phases);

}  // namespace vprobe::wl
