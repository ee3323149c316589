#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cluster/fleet_check.hpp"
#include "trace/digest.hpp"

namespace vprobe::cluster {

namespace {

// Live-migration cost model.
/// Migration NIC bandwidth (10 GbE with protocol overhead).
constexpr double kMigrationBandwidthBytesPerS = 1.25e9;
/// Give up converging and cut over after this many pre-copy rounds.
constexpr int kMaxPrecopyRounds = 8;
/// Cut over once a round would re-send <= this fraction of the VM.
constexpr double kStopRatio = 0.02;
/// Floor on round/downtime duration (protocol latency).
constexpr sim::Time kMinRound = sim::Time::us(50);

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return b > 0 ? (a + b - 1) / b : 0;
}

}  // namespace

Cluster::Cluster(Config config, std::span<const HostSpec> hosts,
                 SchedulerFactory scheduler_factory)
    : config_(std::move(config)) {
  if (hosts.empty()) {
    throw std::invalid_argument("Cluster: at least one host is required");
  }
  if (!scheduler_factory) {
    throw std::invalid_argument("Cluster: scheduler factory is required");
  }
  // Resolve the shard count: never more threads than hosts (a shard is a
  // host's event stream), and a single host or sim_threads=1 stays on the
  // serial shared-engine path — the reference semantics every golden
  // digest is pinned against.
  int threads = config_.sim_threads;
  if (threads <= 0) {
    threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  threads = std::min(threads, static_cast<int>(hosts.size()));
  if (threads > 1) {
    sim_threads_ = threads;
    shard_engines_.reserve(hosts.size());
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      shard_engines_.push_back(std::make_unique<sim::Engine>());
    }
  }
  hosts_.reserve(hosts.size());
  tracers_.reserve(hosts.size());
  for (int id = 0; id < static_cast<int>(hosts.size()); ++id) {
    const HostSpec& spec = hosts[static_cast<std::size_t>(id)];
    hv::Hypervisor::Config host_cfg = config_.host_template;
    host_cfg.machine = spec.machine;
    // Child seed is a pure function of (run seed, host id): host streams do
    // not depend on construction order, and a cluster-of-1 gets exactly the
    // run seed (child_seed(s, 0) == s), matching the single-machine path.
    host_cfg.seed = sim::Rng::child_seed(config_.seed, id);
    host_cfg.host_id = id;
    hosts_.push_back(std::make_unique<hv::Hypervisor>(
        host_cfg, scheduler_factory(id), host_engine(id)));
    host_names_.push_back(spec.name.empty() ? "host" + std::to_string(id)
                                            : spec.name);
    tracers_.push_back(std::make_unique<trace::Tracer>(config_.trace_capacity));
    tracers_.back()->set_host(id);
    hosts_.back()->set_tracer(tracers_.back().get());
  }
  reserved_chunks_.assign(hosts.size(), 0);
}

Cluster::~Cluster() {
  balance_timer_.cancel();
  for (auto& vm : vms_) vm->migration_event.cancel();
  // Drop every pending event before any host dies: cross-host events (and
  // uncancellable zero-delay tickle batches, which link PCPUs) hold
  // references into host state that per-host teardown cannot reach.
  engine_.clear();
  for (auto& shard : shard_engines_) shard->clear();
}

void Cluster::start() {
  for (auto& host : hosts_) host->start();
  if (config_.balance_period > sim::Time::zero()) {
    balance_timer_ = engine_.schedule_periodic(config_.balance_period,
                                               [this] { balance_once(); });
  }
}

// The synchronizer (docs/PDES.md).  Conservative windows: every shard may
// safely run to the time of the next control-plane event, because host
// events never touch another host's state and only control events couple
// hosts.  Shards drain strictly *below* the coupling point, then the control
// engine fires everything at it (draining any same-time control cascade), so
// at equal times control events precede host events.  Worker threads are
// quiescent whenever control code runs, so control events and callers
// between run_until() calls see settled host state.
//
// Each window peeks every shard's next event time.  Shards with work below
// the coupling point are dispatched on the pool; the rest are advanced in
// O(1) from this thread (mandatory: control callbacks call into host code
// that reads the shard clock and schedules relative events).  A window with
// no busy shard fires its control events with no barrier at all, so
// consecutive control events coalesce into one serial burst.  With
// window_batch off every shard counts as busy: one barrier per window.
std::size_t Cluster::run_until(sim::Time deadline) {
  if (!sharded()) return engine_.run_until(deadline);
  if (pool_ == nullptr) pool_ = std::make_unique<ShardPool>(sim_threads_);
  const std::size_t n = shard_engines_.size();
  std::vector<std::size_t> ran(n, 0);
  std::vector<std::size_t> busy;
  busy.reserve(n);

  // One shard pass up to `bound`: exclusive within the loop, inclusive for
  // the tail so events exactly at `deadline` fire, like the serial
  // run_until contract.  Returns false when no shard was dispatched.
  const auto shard_pass = [&](sim::Time bound, bool inclusive) {
    busy.clear();
    for (std::size_t id = 0; id < n; ++id) {
      sim::Engine& shard = *shard_engines_[id];
      const sim::Time next = shard.next_event_time();
      if (!config_.window_batch || (inclusive ? next <= bound : next < bound)) {
        busy.push_back(id);
      } else {
        shard.advance_to(bound);
        ++sync_.shard_skips;
      }
    }
    if (busy.empty()) return false;
    ++sync_.barriers;
    sync_.shard_dispatches += busy.size();
    pool_->parallel_for(static_cast<int>(busy.size()), [&](int bi) {
      const std::size_t id = busy[static_cast<std::size_t>(bi)];
      sim::Engine& shard = *shard_engines_[id];
      ran[id] += inclusive ? shard.run_until(bound) : shard.run_before(bound);
    });
    return true;
  };

  for (;;) {
    const sim::Time coupling = engine_.next_event_time();
    if (coupling > deadline) break;
    ++sync_.windows;
    if (!shard_pass(coupling, /*inclusive=*/false)) ++sync_.windows_coalesced;
    ran[0] += fire_control(coupling);
  }
  // No control events remain at or before the deadline.
  shard_pass(deadline, /*inclusive=*/true);
  sync_.control_events += engine_.run_until(deadline);  // clock only; empty
  std::size_t total = 0;
  for (std::size_t c : ran) total += c;
  return total;
}

std::size_t Cluster::fire_control(sim::Time coupling) {
  // Tied shards with their hosts' trace record counts before control fires.
  std::vector<std::pair<std::size_t, std::uint64_t>> ties;
  for (std::size_t id = 0; id < shard_engines_.size(); ++id) {
    if (shard_engines_[id]->next_event_time() != coupling) continue;
    ++sync_.equal_time_ties;
    ties.emplace_back(id, tracers_[id]->total_recorded());
  }
  const std::size_t fired = engine_.run_until(coupling);
  sync_.control_events += fired;
  for (const auto& [id, records] : ties) {
    if (tracers_[id]->total_recorded() == records) continue;
    if (sync_.touched_ties++ == 0) {
      sync_.first_tie_host = static_cast<int>(id);
      sync_.first_tie_at = coupling;
    }
  }
  return fired;
}

SyncStats Cluster::sync_stats() const {
  SyncStats out = sync_;
  if (pool_ != nullptr) {
    const ShardPool::Stats ps = pool_->stats();
    out.pool_wakeups = ps.wakeups;
    out.pool_spin_grabs = ps.spin_grabs;
    out.pool_parks = ps.parks;
  }
  return out;
}

// -- Admission ----------------------------------------------------------------

std::int64_t Cluster::chunks_on(int host_id, std::int64_t mem_bytes) const {
  const auto& machine =
      hosts_.at(static_cast<std::size_t>(host_id))->config().machine;
  return ceil_div(mem_bytes, machine.chunk_bytes);
}

HostSpace Cluster::host_space(int id) const {
  const auto& hv = *hosts_.at(static_cast<std::size_t>(id));
  // memory_manager() is const-agnostic; Cluster logically owns the hosts.
  auto& mm = const_cast<hv::Hypervisor&>(hv).memory_manager();
  HostSpace space;
  space.host = id;
  const int nodes = mm.num_nodes();
  space.free_chunks.reserve(static_cast<std::size_t>(nodes));
  space.capacity_chunks.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    space.free_chunks.push_back(mm.free_chunks(n));
    space.capacity_chunks.push_back(mm.capacity_chunks(n));
  }
  // Subtract in-flight migration reservations greedily from the fullest
  // nodes — conservative for the shape test (a reservation could land
  // anywhere, so assume it eats the best nodes first).
  std::int64_t rem = reserved_chunks_.at(static_cast<std::size_t>(id));
  while (rem > 0) {
    auto it = std::max_element(space.free_chunks.begin(), space.free_chunks.end());
    if (it == space.free_chunks.end() || *it <= 0) break;
    const std::int64_t take = std::min(rem, *it);
    *it -= take;
    rem -= take;
  }
  space.live_vcpus = static_cast<int>(hv.all_vcpus().size());
  for (const auto& vm : vms_) {
    if (vm->migrating && vm->dst_host == id) space.live_vcpus += vm->spec.vcpus;
  }
  space.total_pcpus = hv.config().machine.total_pcpus();
  space.cores_per_node = hv.config().machine.cores_per_node;
  return space;
}

int Cluster::admit(VmSpec spec) {
  if (spec.name.empty() || find_vm_by_name(spec.name) >= 0 ||
      spec.mem_bytes <= 0 || spec.vcpus <= 0 ||
      spec.host >= num_hosts()) {
    ++rejected_;
    return -1;
  }
  // Pinned VMs have one candidate; otherwise every host is one.
  const int first = spec.host >= 0 ? spec.host : 0;
  const int last = spec.host >= 0 ? spec.host : num_hosts() - 1;
  std::vector<HostSpace> spaces;
  std::vector<PlacementRequest> reqs;
  for (int id = first; id <= last; ++id) {
    spaces.push_back(host_space(id));
    reqs.push_back({chunks_on(id, spec.mem_bytes), spec.vcpus});
  }
  const int best = pick_host(spaces, reqs);
  if (best < 0) {
    ++rejected_;
    return -1;
  }

  hv::Hypervisor& hv = *hosts_[static_cast<std::size_t>(best)];
  hv::Domain& dom = hv.create_domain(spec.name, spec.mem_bytes, spec.vcpus,
                                     spec.policy, spec.preferred);
  if (spec.alternate) dom.memory().alternate_allocation(true);

  auto vm = std::make_unique<Vm>();
  vm->id = next_vm_id_++;
  vm->host = best;
  vm->domain_id = dom.id();
  vm->chunks = chunks_on(best, spec.mem_bytes);
  if (spec.workload) vm->workload = spec.workload(hv, dom);
  vm->spec = std::move(spec);
  const int vm_id = vm->id;
  if (vm->spec.autostart && vm->workload) {
    vm->workload->start();
    vm->started = true;
  }
  vms_.push_back(std::move(vm));
  ++admitted_;
  notify_check();
  return vm_id;
}

bool Cluster::start_vm(int vm_id) {
  Vm* vm = find_vm(vm_id);
  if (vm == nullptr || vm->started || !vm->workload) return false;
  vm->workload->start();
  vm->started = true;
  return true;
}

bool Cluster::destroy(int vm_id) {
  auto it = std::find_if(vms_.begin(), vms_.end(),
                         [vm_id](const auto& vm) { return vm->id == vm_id; });
  if (it == vms_.end()) return false;
  Vm& vm = **it;
  if (vm.migrating) {
    vm.migration_event.cancel();
    reserved_chunks_[static_cast<std::size_t>(vm.dst_host)] -=
        chunks_on(vm.dst_host, vm.spec.mem_bytes);
  }
  if (vm.workload && vm.started) vm.workload->stop();
  hv::Hypervisor& hv = *hosts_[static_cast<std::size_t>(vm.host)];
  if (hv.find_domain(vm.domain_id) != nullptr) hv.destroy_domain(vm.domain_id);
  vms_.erase(it);
  notify_check();
  return true;
}

bool Cluster::pause(int vm_id) {
  Vm* vm = find_vm(vm_id);
  if (vm == nullptr || vm->paused || vm->migrating) return false;
  hv::Domain* dom = domain_of(vm_id);
  if (dom == nullptr) return false;
  hosts_[static_cast<std::size_t>(vm->host)]->pause_domain(*dom);
  vm->paused = true;
  return true;
}

bool Cluster::resume(int vm_id) {
  Vm* vm = find_vm(vm_id);
  if (vm == nullptr || !vm->paused) return false;
  hv::Domain* dom = domain_of(vm_id);
  if (dom == nullptr) return false;
  hosts_[static_cast<std::size_t>(vm->host)]->resume_domain(*dom);
  vm->paused = false;
  return true;
}

// -- Live migration -----------------------------------------------------------

bool Cluster::migrate(int vm_id, int dst_host) {
  Vm* vm = find_vm(vm_id);
  // A VM must have booted to migrate (pre-copy tracks a *running* guest's
  // dirty pages).  This also keeps a staggered start_vm event, which lives
  // on the admission host's engine, from racing a cross-shard move in
  // sharded runs (docs/PDES.md).
  if (vm == nullptr || vm->migrating || vm->paused || !vm->started ||
      !vm->spec.workload || dst_host < 0 || dst_host >= num_hosts() ||
      dst_host == vm->host) {
    ++migrations_rejected_;
    return false;
  }
  const PlacementRequest req{chunks_on(dst_host, vm->spec.mem_bytes),
                             vm->spec.vcpus};
  if (!score_host(host_space(dst_host), req).feasible) {
    ++migrations_rejected_;
    return false;
  }
  reserved_chunks_[static_cast<std::size_t>(dst_host)] += req.chunks;
  vm->migrating = true;
  vm->dst_host = dst_host;
  vm->remaining_bytes = static_cast<double>(vm->spec.mem_bytes);
  vm->rounds_done = 0;
  ++migrations_started_;
  notify_check();
  run_precopy_round(vm_id);
  return true;
}

void Cluster::run_precopy_round(int vm_id) {
  Vm* vm = find_vm(vm_id);
  if (vm == nullptr) return;
  const double bytes = vm->remaining_bytes;
  const sim::Time dur = std::max(
      kMinRound,
      sim::Time::seconds(bytes / kMigrationBandwidthBytesPerS));
  vm->migration_event = engine_.schedule(dur, [this, vm_id, bytes, dur] {
    Vm* v = find_vm(vm_id);
    if (v == nullptr || !v->migrating) return;
    charge_copy_traffic(*v, v->dst_host, bytes, dur);
    migrated_bytes_ += bytes;
    ++precopy_rounds_;
    ++v->rounds_done;
    // Pages the (still running) guest dirtied while this round copied.
    const double dirtied =
        v->started && !v->paused
            ? v->spec.dirty_bytes_per_s * dur.to_seconds()
            : 0.0;
    const double total = static_cast<double>(v->spec.mem_bytes);
    if (dirtied <= kStopRatio * total ||
        v->rounds_done >= kMaxPrecopyRounds) {
      begin_cutover(vm_id, dirtied);
    } else {
      v->remaining_bytes = dirtied;
      run_precopy_round(vm_id);
    }
  });
}

void Cluster::begin_cutover(int vm_id, double dirty_bytes) {
  Vm* vm = find_vm(vm_id);
  if (vm == nullptr) return;
  // Stop-and-copy: the source domain pauses for the final dirty-page copy;
  // this window is the migration's downtime.
  hv::Domain* dom = domain_of(vm_id);
  if (dom != nullptr && !vm->paused) {
    hosts_[static_cast<std::size_t>(vm->host)]->pause_domain(*dom);
  }
  const sim::Time downtime = std::max(
      kMinRound,
      sim::Time::seconds(dirty_bytes / kMigrationBandwidthBytesPerS));
  vm->migration_event =
      engine_.schedule(downtime, [this, vm_id, dirty_bytes, downtime] {
        Vm* v = find_vm(vm_id);
        if (v == nullptr || !v->migrating) return;
        charge_copy_traffic(*v, v->dst_host, dirty_bytes, downtime);
        migrated_bytes_ += dirty_bytes;
        complete_migration(vm_id);
      });
}

void Cluster::complete_migration(int vm_id) {
  Vm* vm = find_vm(vm_id);
  if (vm == nullptr) return;
  const int src = vm->host;
  const int dst = vm->dst_host;
  const bool was_started = vm->started;

  // Tear down the source incarnation.
  if (vm->workload && vm->started) vm->workload->stop();
  vm->workload.reset();
  hv::Hypervisor& src_hv = *hosts_[static_cast<std::size_t>(src)];
  if (src_hv.find_domain(vm->domain_id) != nullptr) {
    src_hv.destroy_domain(vm->domain_id);
  }
  reserved_chunks_[static_cast<std::size_t>(dst)] -=
      chunks_on(dst, vm->spec.mem_bytes);

  // Bring up the destination incarnation and rebind the guest software.
  hv::Hypervisor& dst_hv = *hosts_[static_cast<std::size_t>(dst)];
  hv::Domain& dom =
      dst_hv.create_domain(vm->spec.name, vm->spec.mem_bytes, vm->spec.vcpus,
                           vm->spec.policy, vm->spec.preferred);
  if (vm->spec.alternate) dom.memory().alternate_allocation(true);
  vm->host = dst;
  vm->domain_id = dom.id();
  vm->chunks = chunks_on(dst, vm->spec.mem_bytes);
  vm->workload = vm->spec.workload(dst_hv, dom);
  vm->started = false;
  if (was_started) {
    vm->workload->start();
    vm->started = true;
  }
  vm->migrating = false;
  vm->dst_host = -1;
  vm->remaining_bytes = 0.0;
  ++migrations_completed_;
  notify_check();
}

void Cluster::charge_copy_traffic(Vm& vm, int dst_host, double bytes,
                                  sim::Time dur) {
  if (bytes <= 0.0) return;
  const sim::Time now = engine_.now();
  // Source side: page reads stream from wherever the VM's memory lives to
  // the migration NIC on node 0 (node-0-resident pages never cross the
  // fabric — record_traffic(n, n, ...) is a no-op).
  hv::Hypervisor& src_hv = *hosts_[static_cast<std::size_t>(vm.host)];
  hv::Domain* dom = src_hv.find_domain(vm.domain_id);
  if (dom != nullptr) {
    const std::vector<std::int64_t> census = dom->memory().node_census();
    std::int64_t homed = 0;
    for (std::int64_t c : census) homed += c;
    if (homed > 0) {
      auto& fabric = src_hv.machine_state().interconnect();
      for (int n = 0; n < static_cast<int>(census.size()); ++n) {
        const double share = bytes * static_cast<double>(
                                         census[static_cast<std::size_t>(n)]) /
                             static_cast<double>(homed);
        if (share > 0.0) fabric.record_traffic(n, 0, share, now, dur);
      }
    }
  }
  // Destination side: the receiving host scatters page writes from its NIC
  // (node 0) across its nodes; before the domain exists we assume an even
  // spread — the worst case for its fabric.
  hv::Hypervisor& dst_hv = *hosts_[static_cast<std::size_t>(dst_host)];
  const int dst_nodes = dst_hv.config().machine.num_nodes;
  if (dst_nodes > 1) {
    auto& fabric = dst_hv.machine_state().interconnect();
    const double share = bytes / static_cast<double>(dst_nodes);
    for (int n = 1; n < dst_nodes; ++n) {
      fabric.record_traffic(0, n, share, now, dur);
    }
  }
}

// -- Load balancing -------------------------------------------------------------

void Cluster::balance_once() {
  if (num_hosts() < 2) return;
  int max_host = 0;
  int min_host = 0;
  double max_load = -1.0;
  double min_load = -1.0;
  for (int id = 0; id < num_hosts(); ++id) {
    const auto& hv = *hosts_[static_cast<std::size_t>(id)];
    const int pcpus = hv.config().machine.total_pcpus();
    const double load =
        pcpus > 0
            ? static_cast<double>(hv.all_vcpus().size()) / static_cast<double>(pcpus)
            : 0.0;
    if (max_load < 0.0 || load > max_load) {
      max_load = load;
      max_host = id;
    }
    if (min_load < 0.0 || load < min_load) {
      min_load = load;
      min_host = id;
    }
  }
  if (max_host == min_host || max_load - min_load <= config_.balance_threshold) {
    return;
  }
  // Move the cheapest movable VM (fewest chunks, then lowest id) off the
  // hottest host; one action per period keeps the balancer damped.
  Vm* pick = nullptr;
  for (auto& vm : vms_) {
    if (vm->host != max_host || vm->migrating || vm->paused ||
        !vm->spec.workload || !vm->started) {
      continue;
    }
    if (pick == nullptr || vm->chunks < pick->chunks ||
        (vm->chunks == pick->chunks && vm->id < pick->id)) {
      pick = vm.get();
    }
  }
  if (pick != nullptr && migrate(pick->id, min_host)) ++balance_actions_;
}

// -- Introspection --------------------------------------------------------------

std::vector<Cluster::VmView> Cluster::vms() const {
  std::vector<VmView> out;
  out.reserve(vms_.size());
  for (const auto& vm : vms_) {
    VmView view;
    view.id = vm->id;
    view.name = vm->spec.name;
    view.host = vm->host;
    view.domain_id = vm->domain_id;
    view.chunks = vm->chunks;
    view.paused = vm->paused;
    view.migrating = vm->migrating;
    view.dst_host = vm->dst_host;
    view.movable = static_cast<bool>(vm->spec.workload);
    out.push_back(std::move(view));
  }
  return out;
}

int Cluster::host_of(int vm_id) const {
  const Vm* vm = find_vm(vm_id);
  return vm != nullptr ? vm->host : -1;
}

hv::Domain* Cluster::domain_of(int vm_id) {
  Vm* vm = find_vm(vm_id);
  if (vm == nullptr) return nullptr;
  return hosts_[static_cast<std::size_t>(vm->host)]->find_domain(vm->domain_id);
}

int Cluster::find_vm_by_name(const std::string& name) const {
  for (const auto& vm : vms_) {
    if (vm->spec.name == name) return vm->id;
  }
  return -1;
}

std::uint64_t Cluster::fleet_digest() const {
  std::uint64_t hash = trace::fnv1a_basis();
  for (int id = 0; id < num_hosts(); ++id) {
    const auto& tracer = *tracers_[static_cast<std::size_t>(id)];
    hash = trace::fnv1a_mix(hash, static_cast<std::uint64_t>(id));
    hash = trace::fnv1a_mix(hash, tracer.digest());
    hash = trace::fnv1a_mix(hash, tracer.total_recorded());
  }
  return hash;
}

Cluster::Vm* Cluster::find_vm(int vm_id) {
  for (auto& vm : vms_) {
    if (vm->id == vm_id) return vm.get();
  }
  return nullptr;
}

const Cluster::Vm* Cluster::find_vm(int vm_id) const {
  for (const auto& vm : vms_) {
    if (vm->id == vm_id) return vm.get();
  }
  return nullptr;
}

void Cluster::notify_check() {
  if (check_ != nullptr) check_->on_transition(*this);
}

}  // namespace vprobe::cluster
