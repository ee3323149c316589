// The hypervisor simulator.
//
// Owns the machine (topology, memory, contention state, cost model), the
// domains and their VCPUs, and one pluggable Scheduler.  It drives the
// mechanics every scheduler shares: slice timing, context switches, burst
// execution through the cost model, blocking/waking, periodic ticks and
// accounting, migration bookkeeping (cache-warmth penalties), and the
// overhead ledger.
//
// Execution model: when a PCPU picks a VCPU it runs the VCPU's current burst
// in *segments*.  A segment ends at the earliest of burst completion
// (estimated with a rate snapshot), slice expiry, or preemption; at that
// point the actual elapsed wall time is converted back into retired
// instructions and PMU counters through the cost model.  Contention changes
// therefore apply with at most one segment of lag, and no event is ever
// rewound.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "hv/domain.hpp"
#include "hv/memory_map.hpp"
#include "hv/observer.hpp"
#include "hv/overhead.hpp"
#include "hv/pcpu.hpp"
#include "hv/scheduler.hpp"
#include "numa/machine_config.hpp"
#include "numa/topology.hpp"
#include "numa/vm_memory.hpp"
#include "perf/contention.hpp"
#include "perf/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "trace/tracer.hpp"

namespace vprobe::hv {

class Hypervisor {
 public:
  static constexpr sim::Time kTickPeriod = sim::Time::ms(10);        ///< Xen csched tick
  static constexpr sim::Time kAccountingPeriod = sim::Time::ms(30);  ///< Xen csched acct

  struct Config {
    numa::MachineConfig machine = numa::MachineConfig::xeon_e5620();
    std::uint64_t seed = 1;
    /// The slice clamp and decay memos: the slice-clamp fast path in
    /// start_segment and the tracker decay-factor memos.  Both are
    /// bit-identical by construction; `false` (the --no-rate-cache escape
    /// hatch) recomputes everything so differential tests can prove it.
    bool rate_cache = true;
    /// Which machine of a fleet this is (cluster runs); purely a label for
    /// traces/logs — per-host behaviour is driven by `machine` and `seed`.
    int host_id = 0;
  };

  /// Single-machine mode: the hypervisor owns a private engine (the
  /// pre-cluster behaviour, byte-identical event streams).
  Hypervisor(Config config, std::unique_ptr<Scheduler> scheduler);
  /// Fleet mode: N hypervisors share one engine (one simulated clock, one
  /// deterministic event order across hosts).  The engine must outlive the
  /// hypervisor, and the owner must Engine::clear() before destroying any
  /// host sharing it — events may hold references into this host's state
  /// that per-host teardown cannot cancel (see ~Hypervisor).
  Hypervisor(Config config, std::unique_ptr<Scheduler> scheduler,
             sim::Engine& shared_engine);
  ~Hypervisor();
  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  // -- Setup -----------------------------------------------------------------

  /// Create a domain with `mem_bytes` of guest memory placed per `policy`.
  /// VCPUs start Blocked; bind work and wake them to begin execution.
  Domain& create_domain(const std::string& name, std::int64_t mem_bytes,
                        int num_vcpus, numa::PlacementPolicy policy,
                        numa::NodeId preferred_node = 0);

  // -- Lifecycle --------------------------------------------------------------

  /// Tear a domain down completely: every VCPU is retired (descheduled,
  /// dequeued, its pending timed wake cancelled, dropped from samplers and
  /// the memory map) and the domain's guest memory returns to the node
  /// pools it came from.  Safe in any VCPU state, including the
  /// mid-migration transient and while paused.  Invalidates the domain
  /// reference and all of its Vcpu pointers.
  void destroy_domain(Domain& dom);
  /// Id-keyed convenience; throws std::invalid_argument on an unknown id.
  void destroy_domain(int domain_id);

  /// Administratively pause every VCPU of a domain (Xen's `xl pause`):
  /// running VCPUs are descheduled (their partial segment is accounted),
  /// runnable ones leave the run queues.  Wakes arriving while paused —
  /// including pending timed wakes — are latched and replayed on resume.
  void pause_domain(Domain& dom);
  void resume_domain(Domain& dom);

  /// Permanently remove one VCPU (per-VCPU retirement / hot-unplug).  The
  /// VCPU goes to kDone, leaves all_vcpus() and every run queue, and its
  /// pending events are cancelled.  destroy_domain() uses this per VCPU.
  void retire_vcpu(Vcpu& vcpu);

  /// Id-keyed domain lookup; nullptr when the id does not exist (any more).
  /// Prefer this over domain(i) wherever the domain set can change:
  /// positional indices shift when a domain is destroyed.
  Domain* find_domain(int domain_id);

  /// Bind a guest thread to a VCPU (non-owning).
  void bind_work(Vcpu& vcpu, VcpuWork& work) { vcpu.bind_work(&work); }

  /// Arm the periodic tick/accounting timers.  Call once before running.
  void start();

  // -- Runtime services -------------------------------------------------------

  /// Make a blocked VCPU runnable (guest event: request arrival, barrier
  /// release, timer).  No-op if it is already runnable/running/done.
  void wake(Vcpu& vcpu);

  /// Move `vcpu` to the least-loaded PCPU of `node` (the partitioner's
  /// migrate()).  Works in any VCPU state; a running VCPU is preempted.
  void migrate_to_node(Vcpu& vcpu, numa::NodeId node);

  /// Ask `pcpu` to re-run scheduling as soon as the current event completes
  /// (used after enqueuing work an idle PCPU could take).
  void poke(Pcpu& pcpu);

  /// Force `pcpu` to deschedule its current VCPU (asynchronously, at the
  /// current simulated time).
  void request_preempt(Pcpu& pcpu);

  /// Charge hypervisor overhead: recorded in the ledger and, when `where`
  /// is given, stalls that PCPU's guest execution by `cost`.
  void charge_overhead(OverheadBucket bucket, sim::Time cost,
                       Pcpu* where = nullptr);

  // -- Introspection -----------------------------------------------------------

  sim::Engine& engine() { return engine_; }
  sim::Time now() const { return engine_.now(); }
  int host_id() const { return config_.host_id; }
  sim::Rng& rng() { return rng_; }
  const Config& config() const { return config_; }
  const numa::Topology& topology() const { return topology_; }
  numa::MemoryManager& memory_manager() { return memory_manager_; }
  perf::MachineState& machine_state() { return machine_state_; }
  perf::CostModel& cost_model() { return cost_model_; }
  Scheduler& scheduler() { return *scheduler_; }

  std::vector<Pcpu>& pcpus() { return pcpus_; }
  Pcpu& pcpu(numa::PcpuId id) { return pcpus_.at(static_cast<std::size_t>(id)); }

  /// Run-queue occupancy: bit p is set exactly while PCPU p's run queue is
  /// non-empty (maintained by RunQueue itself).  Steals walk its set bits
  /// instead of every PCPU.
  const numa::PcpuMask& occupied_pcpus() const { return occupied_pcpus_; }

  std::span<const std::unique_ptr<Domain>> domains() const { return domains_; }
  /// Positional access — indices shift when a domain is destroyed; use
  /// find_domain(id) in any code that can run across lifecycle changes.
  Domain& domain(std::size_t i) { return *domains_.at(i); }

  /// Every VCPU on the machine, in global-id order.
  std::span<Vcpu* const> all_vcpus() const { return all_vcpus_; }

  const OverheadLedger& overhead() const { return ledger_; }
  OverheadLedger& overhead() { return ledger_; }

  /// Registry of which guest regions each VCPU's thread works on — consumed
  /// by page-migration policies; populated by cooperating workloads.
  MemoryMap& memory_map() { return memory_map_; }
  const MemoryMap& memory_map() const { return memory_map_; }

  /// Attach a tracer (nullptr detaches).  Non-owning; the tracer must
  /// outlive the hypervisor or be detached first.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() { return tracer_; }

  /// Attach an invariant-checking observer (nullptr detaches).  Non-owning;
  /// the observer must outlive the hypervisor or be detached first.
  void set_observer(HvObserver* observer) { observer_ = observer; }
  HvObserver* observer() { return observer_; }

  /// Emit a trace record when a tracer is attached (cheap no-op otherwise).
  void emit(trace::EventKind kind, std::int32_t vcpu, std::int32_t pcpu,
            std::int32_t aux = 0) {
    if (tracer_ != nullptr) tracer_->record(engine_.now(), kind, vcpu, pcpu, aux);
    if (observer_ != nullptr) observer_->on_trace_event(*this, kind, vcpu);
  }

  /// Least-loaded PCPU (by the paper's `workload` counter, then by id) of a
  /// node; used by the partitioner's migrate().
  Pcpu& least_loaded_pcpu(numa::NodeId node);

  /// Total guest busy time accumulated across PCPUs.
  sim::Time total_busy_time() const;

  /// Total migration counts across all VCPUs.
  std::uint64_t total_migrations() const;
  std::uint64_t total_cross_node_migrations() const;

 private:
  /// Shared tail of both public constructors; `shared` null = owned engine.
  Hypervisor(Config config, std::unique_ptr<Scheduler> scheduler,
             sim::Engine* shared);

  void schedule_pcpu(Pcpu& pcpu);
  void start_running(Pcpu& pcpu, Vcpu& vcpu);
  void start_segment(Pcpu& pcpu);
  void end_segment(Pcpu& pcpu, bool force_requeue);
  /// Shared tail of a segment: cancel the timer, convert elapsed wall time
  /// into retired instructions/PMU counters, and release contention state.
  /// Returns the retired instruction count; the caller decides whether the
  /// workload advances (end_segment, pause) or the burst is discarded
  /// (retirement kills the guest mid-flight).
  double settle_segment(Pcpu& pcpu);
  /// PCPU currently running `vcpu`, found by scanning `current` pointers —
  /// vcpu.pcpu is unreliable during the migrate_to_node transient.
  Pcpu* host_of(const Vcpu& vcpu);
  void pause_vcpu(Vcpu& vcpu);
  void resume_vcpu(Vcpu& vcpu);
  void tickle_after_wake(Vcpu& vcpu);
  /// Arm one zero-delay event that preempts `preempt` (if still busy) and
  /// then reschedules each still-idle PCPU of the `poke_next` chain from
  /// `head`, in list order.  Either may be null; both null arms nothing.
  void arm_tickle(Pcpu* preempt, Pcpu* head);
  void on_tick(Pcpu& pcpu);
  void on_accounting();

  Config config_;
  /// Single-machine mode owns its engine; fleet mode references a shared
  /// one.  All mechanics go through the reference, so both modes run the
  /// exact same code (and the owned mode the exact same event streams as
  /// before the cluster refactor).
  std::unique_ptr<sim::Engine> owned_engine_;
  sim::Engine& engine_;
  sim::Rng rng_;
  numa::Topology topology_;
  numa::MemoryManager memory_manager_;
  perf::MachineState machine_state_;
  perf::CostModel cost_model_;
  std::unique_ptr<Scheduler> scheduler_;
  /// Sized once in the constructor and never resized: each PCPU's run
  /// queue holds a pointer to its word.
  numa::PcpuMask occupied_pcpus_;
  std::vector<Pcpu> pcpus_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<Vcpu*> all_vcpus_;
  OverheadLedger ledger_;
  MemoryMap memory_map_;
  trace::Tracer* tracer_ = nullptr;
  HvObserver* observer_ = nullptr;
  std::vector<sim::EventHandle> tick_timers_;  ///< one periodic per PCPU
  sim::EventHandle accounting_timer_;
  int next_domain_id_ = 1;
  /// Global VCPU ids are never reused: retirement shrinks all_vcpus_, so
  /// sizing new ids off the vector (the old scheme) would alias a dead
  /// VCPU's id in traces, the memory map, and contention-occupant keys.
  int next_vcpu_id_ = 0;
};

}  // namespace vprobe::hv
