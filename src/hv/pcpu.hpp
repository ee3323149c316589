// Physical CPU state.
//
// Carries the per-PCPU run queue, the currently running VCPU and its
// in-flight burst bookkeeping, and the `workload` counter the paper adds in
// Section IV-B (number of VCPUs in the run queue, maintained on every
// insert/remove) that drives the NUMA-aware load balancer's loadList.
#pragma once

#include <array>
#include <cstdint>

#include "hv/run_queue.hpp"
#include "hv/work.hpp"
#include "numa/topology.hpp"
#include "sim/engine.hpp"

namespace vprobe::hv {

struct Pcpu {
  numa::PcpuId id = numa::kInvalidPcpu;
  numa::NodeId node = numa::kInvalidNode;

  RunQueue queue;
  Vcpu* current = nullptr;

  /// The paper's per-PCPU `workload` field (Section IV-B): number of VCPUs
  /// in the run queue.  Derived so it can never drift out of sync.
  int workload() const { return static_cast<int>(queue.size()); }

  // -- In-flight slice bookkeeping (owned by the Hypervisor) -----------------
  sim::EventHandle segment_event;   ///< pending burst-end/slice-end event
  sim::Time slice_end;              ///< wall deadline of the current slice
  sim::Time segment_start;          ///< when the current burst segment began
  BurstPlan burst;                  ///< plan being executed
  /// Stable copy of the burst's node fractions (the plan's span may point at
  /// a VmMemory cache that placement changes would invalidate mid-segment).
  std::array<double, 8> frac_copy{};
  /// Hypervisor time (PMU collection, partitioning, ...) charged to this
  /// PCPU; subtracted from the next segment's useful execution time.
  sim::Time pending_stall;
  /// Set while this PCPU waits in a queued tickle batch (one zero-delay
  /// event that reschedules each member in turn); cleared just before its
  /// turn runs.  A PCPU already waiting is not added to another batch.
  bool poke_pending = false;
  /// Next PCPU of the same tickle batch (intrusive list; nullptr ends it,
  /// and is the value whenever poke_pending is clear).
  Pcpu* poke_next = nullptr;

  // -- Statistics -------------------------------------------------------------
  sim::Time busy_time;
  sim::Time idle_since;
  std::uint64_t context_switches = 0;

  bool busy() const { return current != nullptr; }
  bool idle() const { return current == nullptr; }
};

}  // namespace vprobe::hv
