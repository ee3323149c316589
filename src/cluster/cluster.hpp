// The cluster control plane: N hypervisors on one control engine, with
// optional per-host engine shards (PDES).
//
// A Cluster owns one control sim::Engine plus one hv::Hypervisor per host
// spec — each host with its own machine config, contention stack, scheduler
// instance, tracer stream (tagged by host id) and a child RNG stream
// derived from (run seed, host id), so fleet digests are invariant to
// host-construction order.  With Config::sim_threads > 1 every host also
// gets a private engine shard; run_until() then advances the shards on a
// worker pool under a conservative-lookahead synchronizer whose windows end
// at the next control-plane event (balancer tick, migration round, churn
// arrival, scripted directive), bit-identical to the serial path — the
// model, the ordering rule and the determinism argument live in
// docs/PDES.md.  Above the per-host schedulers it provides the
// datacenter-level mechanisms the ROADMAP's scale-out item names:
//
//  * admission control + initial placement: a Gudkov-style per-host
//    available-space feasibility filter (cluster/placement.hpp) picks the
//    host; infeasible VMs are rejected, not queued;
//  * cross-host live migration: pre-copy rounds as engine events, page-copy
//    traffic charged through both hosts' Interconnect models (the
//    migration NIC hangs off node 0), dirty rate from the VM's workload
//    profile, stop-and-copy cutover with a real downtime window;
//  * a periodic load balancer that moves the smallest movable VM from the
//    most- to the least-loaded host when the gap exceeds a threshold.
//
// Determinism: every decision is a pure function of (config, admission
// order, engine time); all randomness lives in the per-host hypervisor
// streams.  The fleet digest folds the per-host running trace digests in
// host-id order, so `--jobs 1` and `--jobs N` runs of the same spec agree
// bit-for-bit.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "cluster/shard_pool.hpp"
#include "cluster/workload.hpp"
#include "hv/hypervisor.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace vprobe::cluster {

class FleetCheck;

/// One machine of the fleet.
struct HostSpec {
  std::string name;  ///< label for stats/violations; defaults to "host<id>"
  numa::MachineConfig machine = numa::MachineConfig::xeon_e5620();
};

/// Per-host scheduler factory: the cluster cannot depend on runner/, so the
/// caller supplies scheduler construction (one fresh instance per host).
using SchedulerFactory =
    std::function<std::unique_ptr<hv::Scheduler>(int host_id)>;

/// A VM as the control plane sees it.
struct VmSpec {
  std::string name;  ///< unique across the cluster
  std::int64_t mem_bytes = 0;
  int vcpus = 1;
  numa::PlacementPolicy policy = numa::PlacementPolicy::kFillFirst;
  numa::NodeId preferred = 0;
  bool alternate = false;
  int host = -1;  ///< pin to this host id; -1 = controller places
  /// Guest page-dirty rate during pre-copy (from the workload profile);
  /// 0 = cold VM, a single copy round converges.
  double dirty_bytes_per_s = 0.0;
  /// Start the factory workload at admission (churn semantics).  When
  /// false the caller staggers starts via start_vm().
  bool autostart = true;
  /// Rebindable guest software; VMs without a factory cannot live-migrate.
  WorkloadFactory workload;
};

struct Config {
  std::uint64_t seed = 1;
  /// Template for every host's hv config; machine/seed/host_id are
  /// overridden per host.
  hv::Hypervisor::Config host_template;
  /// Cluster load-balancer period; zero disables it.
  sim::Time balance_period = sim::Time::zero();
  /// Balancer acts when (max - min) per-host load exceeds this, where load
  /// = live VCPUs / PCPUs.
  double balance_threshold = 0.25;
  /// Per-host tracer ring capacity.  The running digest is exact even when
  /// a ring wraps, so fleets default to a small ring.
  std::size_t trace_capacity = 8192;
  /// Engine shards for one run (PDES).  1 = the serial shared-engine path,
  /// the reference semantics; N > 1 gives every host a private engine
  /// shard and run_until() advances them on N worker threads (capped at
  /// the host count) under the conservative-lookahead synchronizer, with
  /// results bit-identical to sim_threads=1 (docs/PDES.md).  <= 0 picks
  /// one thread per hardware core.
  int sim_threads = 1;
  /// Demand-driven windows (docs/PDES.md): dispatch only the shards with
  /// work below the coupling point, advance the others' clocks from the
  /// control thread, and fire control events with no barrier when no shard
  /// is busy.  false counts every shard as busy, one barrier per window
  /// (--no-window-batch); results are bit-identical either way.
  bool window_batch = true;
};

/// Synchronizer counters for a sharded run (all zero in serial mode).
/// Batch-on and batch-off runs of the same spec produce identical digests
/// but different counters — that asymmetry is the point: windows_coalesced
/// and shard_skips measure barriers that window_batch did not pay.
struct SyncStats {
  std::uint64_t windows = 0;            ///< coupling points processed
  std::uint64_t windows_coalesced = 0;  ///< windows fired with no shard pass
  std::uint64_t control_events = 0;     ///< control-engine events fired
  std::uint64_t barriers = 0;           ///< ShardPool barriers paid
  std::uint64_t shard_dispatches = 0;   ///< shard run_before/run_until calls
  std::uint64_t shard_skips = 0;        ///< idle shards advanced in O(1)
  std::uint64_t pool_wakeups = 0;       ///< condvar notifies to parked workers
  std::uint64_t pool_spin_grabs = 0;    ///< batches a worker joined by spinning
  std::uint64_t pool_parks = 0;         ///< times a worker parked after spinning
  /// Equal-time control/host pairs (docs/PDES.md, fact 2): a shard whose
  /// next event is exactly at a coupling point.  The synchronizer fires it
  /// after that point's control events; the serial engine orders the pair
  /// by arming order.  Diagnostics only, kept out of ClusterMetrics and its
  /// JSON (the perf suite digests that JSON).
  std::uint64_t equal_time_ties = 0;
  /// The ties whose control events recorded trace events on the tied host,
  /// i.e. acted on it: the ones whose order can show in its trace.
  std::uint64_t touched_ties = 0;
  int first_tie_host = -1;  ///< host of the first touched tie (-1: none)
  sim::Time first_tie_at;   ///< coupling time of the first touched tie
};

class Cluster {
 public:
  Cluster(Config config, std::span<const HostSpec> hosts,
          SchedulerFactory scheduler_factory);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // -- Fleet access -----------------------------------------------------------

  /// The control engine: all cluster-level events (balancer, migration
  /// rounds, churn arrivals, scripted directives) live here.  In serial
  /// mode it is also every host's engine.
  sim::Engine& engine() { return engine_; }
  sim::Time now() const { return engine_.now(); }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  /// True when this fleet runs host shards on worker threads (resolved
  /// from Config::sim_threads and the host count at construction).
  bool sharded() const { return !shard_engines_.empty(); }
  /// Worker threads the synchronizer uses; 1 in serial mode.
  int sim_threads() const { return sim_threads_; }
  /// The engine a host's own events live on: its shard when sharded, the
  /// control engine otherwise.  Host-local setup events (staggered
  /// workload starts, externally-owned app starters) must be scheduled
  /// here, never on engine(), so each host's event order matches the
  /// serial path (docs/PDES.md).
  sim::Engine& host_engine(int id) {
    return sharded() ? *shard_engines_.at(static_cast<std::size_t>(id))
                     : engine_;
  }
  hv::Hypervisor& host(int id) { return *hosts_.at(static_cast<std::size_t>(id)); }
  const std::string& host_name(int id) const {
    return host_names_.at(static_cast<std::size_t>(id));
  }
  trace::Tracer& tracer(int id) { return *tracers_.at(static_cast<std::size_t>(id)); }

  /// Arm every host's timers (id order) and the cluster balancer.
  void start();

  /// Advance the whole fleet to `deadline` (events exactly at `deadline`
  /// fire, like Engine::run_until).  Serial mode runs the shared engine
  /// directly; sharded mode alternates conservative host windows with
  /// control-plane events under the rule "at equal times, control events
  /// fire before host events" (docs/PDES.md proves this matches the
  /// serial order).  Returns the number of events run, fleet-wide.
  std::size_t run_until(sim::Time deadline);

  // -- Control plane ----------------------------------------------------------

  /// Admit a VM: feasibility-filter every candidate host, create the
  /// domain on the winner, boot the workload (autostart).  Returns the
  /// cluster-wide VM id, or -1 when no host can take it (rejected()).
  int admit(VmSpec spec);

  /// Start a VM admitted with autostart=false.
  bool start_vm(int vm_id);

  /// Stop the workload (if cluster-managed), destroy the domain, and
  /// forget the VM.  Cancels an in-flight migration.
  bool destroy(int vm_id);

  bool pause(int vm_id);   ///< refused while a migration is in flight
  bool resume(int vm_id);

  /// Begin a pre-copy live migration to `dst_host`.  Refused (with
  /// migrations_rejected() bumped) when the VM is unknown, paused, already
  /// migrating, not rebindable, or the destination is infeasible.
  bool migrate(int vm_id, int dst_host);

  // -- Introspection ----------------------------------------------------------

  struct VmView {
    int id = -1;
    std::string name;
    int host = -1;
    int domain_id = -1;
    std::int64_t chunks = 0;
    bool paused = false;
    bool migrating = false;
    int dst_host = -1;
    bool movable = false;  ///< has a workload factory
  };
  std::vector<VmView> vms() const;
  int host_of(int vm_id) const;     ///< -1 when unknown
  hv::Domain* domain_of(int vm_id);
  int find_vm_by_name(const std::string& name) const;  ///< -1 when unknown

  /// Available space on a host, net of in-flight migration reservations.
  HostSpace host_space(int id) const;
  /// Destination chunks reserved by in-flight migrations onto `id`.
  std::int64_t reserved_chunks(int id) const {
    return reserved_chunks_.at(static_cast<std::size_t>(id));
  }

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t migrations_started() const { return migrations_started_; }
  std::uint64_t migrations_completed() const { return migrations_completed_; }
  std::uint64_t migrations_rejected() const { return migrations_rejected_; }
  std::uint64_t precopy_rounds() const { return precopy_rounds_; }
  double migrated_bytes() const { return migrated_bytes_; }
  std::uint64_t balance_actions() const { return balance_actions_; }

  /// Synchronizer counters, cumulative across run_until() calls, with the
  /// ShardPool's handoff stats folded in.  Zero for serial runs.
  SyncStats sync_stats() const;

  /// Fleet digest: per-host running trace digests + record counts folded
  /// in host-id order (FNV-1a).  Bit-identical across serial/parallel runs
  /// and across host-construction order.
  std::uint64_t fleet_digest() const;

  /// Attach the cluster-level invariant observer (nullptr detaches).
  void set_check(FleetCheck* check) { check_ = check; }

  const Config& config() const { return config_; }

 private:
  /// Tests corrupt the bookkeeping below through this, to prove FleetCheck
  /// catches states no public call can reach (tests/cluster_test.cpp).
  friend struct ClusterFaults;

  struct Vm {
    int id = -1;
    VmSpec spec;
    int host = -1;
    int domain_id = -1;
    std::int64_t chunks = 0;  ///< in the current host's chunk units
    std::unique_ptr<Workload> workload;
    bool started = false;
    bool paused = false;
    bool migrating = false;
    int dst_host = -1;
    double remaining_bytes = 0.0;
    int rounds_done = 0;
    sim::EventHandle migration_event;
  };

  Vm* find_vm(int vm_id);
  const Vm* find_vm(int vm_id) const;
  /// Note the shards whose next event is exactly at `coupling` (the
  /// equal-time ties), fire the control events at `coupling`, and count the
  /// ties whose host they touched.  Call with the workers quiescent, after
  /// the shard pass.  Returns the events fired.
  std::size_t fire_control(sim::Time coupling);
  std::int64_t chunks_on(int host_id, std::int64_t mem_bytes) const;
  void run_precopy_round(int vm_id);
  void begin_cutover(int vm_id, double dirty_bytes);
  void complete_migration(int vm_id);
  /// Charge one copy burst through both hosts' interconnects: reads spread
  /// over the source VM's memory census, writes spread over the
  /// destination's nodes; the NIC sits on node 0 of each host.
  void charge_copy_traffic(Vm& vm, int dst_host, double bytes, sim::Time dur);
  void balance_once();
  void notify_check();

  Config config_;
  /// Engines must outlive hosts_ and vms_ (their destructors cancel
  /// events), so they are declared first; ~Cluster also clears them all
  /// before any member dies.
  sim::Engine engine_;  ///< control engine (and the only one when serial)
  std::vector<std::unique_ptr<sim::Engine>> shard_engines_;  ///< per host
  std::unique_ptr<ShardPool> pool_;  ///< built on first sharded run_until
  int sim_threads_ = 1;
  SyncStats sync_;
  std::vector<std::unique_ptr<hv::Hypervisor>> hosts_;
  std::vector<std::string> host_names_;
  std::vector<std::unique_ptr<trace::Tracer>> tracers_;
  std::vector<std::int64_t> reserved_chunks_;  ///< per-host, migration dst
  std::vector<std::unique_ptr<Vm>> vms_;
  sim::EventHandle balance_timer_;
  FleetCheck* check_ = nullptr;
  int next_vm_id_ = 1;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t migrations_started_ = 0;
  std::uint64_t migrations_completed_ = 0;
  std::uint64_t migrations_rejected_ = 0;
  std::uint64_t precopy_rounds_ = 0;
  double migrated_bytes_ = 0.0;
  std::uint64_t balance_actions_ = 0;
};

}  // namespace vprobe::cluster
