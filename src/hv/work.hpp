// The contract between the hypervisor and guest workloads.
//
// Each VCPU is bound to one VcpuWork (a guest thread).  The hypervisor asks
// for the current burst — a run of instructions with uniform memory
// behaviour ending at a natural blocking point (barrier, empty request
// queue, app exit) — executes some or all of it through the cost model, and
// reports back how many instructions retired.  The workload answers with
// what the VCPU does next: keep running, block, or finish.
#pragma once

#include "perf/cost_model.hpp"
#include "sim/time.hpp"

namespace vprobe::hv {

/// A burst of guest execution with uniform memory behaviour.
struct BurstPlan {
  /// Instructions until the burst's natural end (may be effectively
  /// unbounded for CPU hogs; the scheduler's slice still caps each run).
  double instructions = 0.0;
  perf::SliceProfile profile;
};

enum class OutcomeKind {
  kContinue,        ///< more work immediately available
  kBlockTimed,      ///< sleep for `wake_after`
  kBlockUntilWake,  ///< sleep until an external event wakes this VCPU
  kFinished,        ///< the guest thread exited
};

struct Outcome {
  OutcomeKind kind = OutcomeKind::kContinue;
  sim::Time wake_after = sim::Time::zero();  ///< only for kBlockTimed
};

class VcpuWork {
 public:
  virtual ~VcpuWork() = default;

  /// The burst the VCPU would execute if it got the CPU right now.
  /// Only called while the thread has runnable work.
  virtual BurstPlan next_burst(sim::Time now) = 0;

  /// Consume `instructions` of the current burst (may be less than the
  /// burst's total when the slice expired) and report what happens next.
  virtual Outcome advance(double instructions, sim::Time now) = 0;
};

}  // namespace vprobe::hv
