#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/vprobe_sched.hpp"
#include "runner/churn.hpp"
#include "runner/experiment.hpp"
#include "runner/fleet.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_file.hpp"
#include "stats/json.hpp"
#include "workload/hungry.hpp"
#include "workload/kv_server.hpp"
#include "workload/open_loop.hpp"
#include "workload/os_ticker.hpp"
#include "workload/spec.hpp"

namespace perfsuite {

using namespace vprobe;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// examples/scenarios/spike_fleet.scn, embedded so the suite's inputs do not
// move when the example does.  The scheduler, seed, rate and horizon are
// overridden per simulation.
constexpr std::string_view kSpikeFleet = R"(
machines xeon_e5620*4
scheduler vprobe
seed 7
horizon 1.0
sampling 0.25

vm name=kv0 mem=4G vcpus=4 host=0
vm name=kv1 mem=4G vcpus=4 host=1
vm name=kv2 mem=4G vcpus=4 host=2
vm name=kv3 mem=4G vcpus=4 host=3

app vm=kv0 kind=kv threads=4 instr=150k batch=32
app vm=kv1 kind=kv threads=4 instr=150k batch=32
app vm=kv2 kind=kv threads=4 instr=150k batch=32
app vm=kv3 kind=kv threads=4 instr=150k batch=32

openloop rps=30000 start=0.05 spike_at=0.4 spike_until=0.7 spike_x=4
slo ms=2
churn start=0.1 interarrival=0.08 lifetime=0.2 max_live=4 vcpus_min=2 vcpus_max=4 mem_min=512M mem_max=2G
)";

constexpr sim::Time kSlice = sim::Time::ms(100);

/// Drives one simulation in 100 ms simulated slices — the grid on which
/// runner::run_until and runner::run_cluster_until poll — recording one
/// span per slice with the hook calls and self time it contained.
class Slicer {
 public:
  Slicer(std::vector<TimedScheduler*> scheds, SpanLog& log, std::int64_t parent,
         Layers& layers)
      : scheds_(std::move(scheds)), log_(log), parent_(parent), layers_(layers) {}

  /// runner::run_until's loop; a null `done` runs to the horizon and
  /// reports completion (run_cluster_until's contract).
  bool run(sim::Time horizon, const std::function<bool()>& done,
           const std::function<sim::Time()>& now,
           const std::function<void(sim::Time)>& advance) {
    while (now() < horizon) {
      if (done && done()) return true;
      const HookStats before = hooks();
      const std::int64_t span = log_.open("slice", parent_);
      const auto t0 = Clock::now();
      advance(std::min(now() + kSlice, horizon));
      const std::int64_t ns = ns_between(t0, Clock::now());
      const HookStats delta = hooks() - before;
      log_.close(span, delta.total_calls(), delta.total_ns());
      layers_.run_ns += ns;
      layers_.slice_ms.push_back(static_cast<double>(ns) / 1e6);
    }
    return done ? done() : true;
  }

  HookStats hooks() const {
    HookStats sum;
    for (const TimedScheduler* s : scheds_) sum += s->stats();
    return sum;
  }

 private:
  std::vector<TimedScheduler*> scheds_;
  SpanLog& log_;
  std::int64_t parent_;
  Layers& layers_;
};

void add_scheduler_layers(TimedScheduler& timed, Layers& layers) {
  layers.hooks += timed.stats();
  if (auto* vp = dynamic_cast<const core::VprobeScheduler*>(&timed.inner())) {
    layers.partition_rounds += vp->partition_rounds();
    layers.partition_moves += vp->partition_moves();
  }
}

void add_host_layers(hv::Hypervisor& hv, Layers& layers) {
  const auto& cache = hv.cost_model().cache_stats();
  layers.rate_hits += cache.hits;
  layers.rate_misses += cache.misses;
}

// -- paper_mix: runner::run_spec_single on the SPEC mix ------------------------

/// Replica of runner::run_spec_single(config, "mix") with the scheduler
/// decorated; keep in lockstep with src/runner/experiment.cpp (same_output
/// fails the suite if it drifts).
Traced replica_spec_mix(const runner::RunConfig& config, SpanLog& log,
                        std::int64_t parent) {
  runner::SchedulerOptions opts;
  opts.sampling_period = config.sampling_period;
  opts.dynamic_bounds = config.dynamic_bounds;
  opts.rate_cache = config.rate_cache;
  hv::Hypervisor::Config hcfg;  // make_hypervisor's machine: the paper's Xeon
  hcfg.seed = config.seed;
  hcfg.rate_cache = opts.rate_cache;
  auto owned = std::make_unique<TimedScheduler>(runner::make_scheduler(config.sched, opts));
  TimedScheduler* timed = owned.get();
  auto hv = std::make_unique<hv::Hypervisor>(hcfg, std::move(owned));
  runner::StandardVms vms = runner::create_standard_vms(*hv);

  const std::vector<std::string_view> mix = {"soplex", "libquantum", "mcf", "milc"};
  auto make_instances = [&](hv::Domain& dom) {
    std::vector<std::unique_ptr<wl::SpecApp>> result;
    auto vcpus = runner::domain_vcpus(dom);
    for (std::size_t i = 0; i < 4; ++i) {
      const std::string_view prof = mix[i % mix.size()];
      result.push_back(std::make_unique<wl::SpecApp>(
          *hv, dom, *vcpus[i % vcpus.size()], prof, config.instr_scale,
          std::string(prof) + "#" + std::to_string(i)));
    }
    return result;
  };
  auto guest_ticks = [&](hv::Domain& dom, std::size_t first_unused) {
    std::vector<hv::Vcpu*> spare;
    for (std::size_t i = first_unused; i < dom.num_vcpus(); ++i) {
      spare.push_back(&dom.vcpu(i));
    }
    auto ticks = std::make_unique<wl::GuestOsTicks>(*hv, dom, spare);
    ticks->start();
    return ticks;
  };

  auto vm1_apps = make_instances(*vms.vm1);
  auto vm2_apps = make_instances(*vms.vm2);
  wl::HungryLoops hungry(*hv, *vms.vm3, runner::domain_vcpus(*vms.vm3));
  hv->start();
  hungry.start();
  auto ticks1 = guest_ticks(*vms.vm1, vm1_apps.size());
  auto ticks2 = guest_ticks(*vms.vm2, vm2_apps.size());
  int launch = 0;
  for (auto* apps : {&vm1_apps, &vm2_apps}) {
    for (auto& a : *apps) {
      hv->engine().schedule(sim::Time::ms(10 * ++launch),
                            [app = a.get()] { app->start(); });
    }
  }

  Traced out;
  Slicer slicer({timed}, log, parent, out.layers);
  sim::Engine& engine = hv->engine();
  const bool done = slicer.run(
      config.horizon,
      [&] {
        return std::all_of(vm1_apps.begin(), vm1_apps.end(),
                           [](const auto& a) { return a->finished(); });
      },
      [&] { return engine.now(); }, [&](sim::Time t) { engine.run_until(t); });

  stats::RunMetrics& m = out.metrics;
  m.scheduler = runner::to_string(config.sched);
  m.workload = "spec:mix";
  m.completed = done;
  for (auto& a : vm1_apps) {
    m.app_runtime_s[a->name()] = a->finished() ? a->runtime().to_seconds() : 0.0;
  }
  m.finalize();
  const pmu::CounterSet totals = vms.vm1->total_counters();
  m.total_mem_accesses = totals.total_mem_accesses();
  m.remote_mem_accesses = totals.remote_accesses;
  m.migrations = hv->total_migrations();
  m.cross_node_migrations = hv->total_cross_node_migrations();
  const double busy_s = hv->total_busy_time().to_seconds();
  m.overhead_fraction =
      busy_s > 0 ? hv->overhead().paper_overhead().to_seconds() / busy_s : 0.0;
  m.sim_seconds = hv->now().to_seconds();

  out.layers.events = engine.executed();
  add_scheduler_layers(*timed, out.layers);
  add_host_layers(*hv, out.layers);
  return out;
}

Sim spec_mix_sim(const runner::RunConfig& cfg) {
  return {std::string(runner::to_string(cfg.sched)) + "/seed" + std::to_string(cfg.seed),
          [cfg] { return runner::run_spec_single(cfg, "mix"); },
          [cfg](SpanLog& log, std::int64_t parent) {
            return replica_spec_mix(cfg, log, parent);
          },
          Compare::kJson};
}

std::vector<Sim> paper_mix(bool smoke, std::uint64_t seed, bool zero_horizon) {
  const std::vector<runner::SchedKind> scheds =
      smoke ? std::vector{runner::SchedKind::kCredit, runner::SchedKind::kVprobe}
            : std::vector(runner::all_schedulers().begin(),
                          runner::all_schedulers().end());
  const int seeds = smoke ? 1 : 3;
  std::vector<Sim> sims;
  for (int k = 0; k < seeds; ++k) {
    for (const runner::SchedKind sched : scheds) {
      runner::RunConfig cfg;
      cfg.sched = sched;
      cfg.seed = seed + static_cast<std::uint64_t>(k);
      cfg.instr_scale = smoke ? 0.02 : 1.0;
      if (zero_horizon) cfg.horizon = sim::Time::zero();
      sims.push_back(spec_mix_sim(cfg));
    }
  }
  return sims;
}

// -- Fleet helpers --------------------------------------------------------------

void add_cluster_layers(cluster::Cluster& fleet,
                        const std::vector<TimedScheduler*>& timed, Layers& layers) {
  layers.events += fleet.engine().executed();
  for (int id = 0; id < fleet.num_hosts(); ++id) {
    if (fleet.sharded()) layers.events += fleet.host_engine(id).executed();
    add_host_layers(fleet.host(id), layers);
    layers.trace_records += fleet.tracer(id).total_recorded();
  }
  for (TimedScheduler* t : timed) add_scheduler_layers(*t, layers);
  layers.sync = fleet.sync_stats();
  layers.migrations_completed = fleet.migrations_completed();
  layers.precopy_rounds = fleet.precopy_rounds();
}

/// Scheduler factory that decorates every host's scheduler and remembers
/// the decorators (hosts are built in the Cluster constructor).
cluster::SchedulerFactory timed_factory(cluster::SchedulerFactory inner,
                                        std::vector<TimedScheduler*>& timed) {
  return [inner = std::move(inner), &timed](int host_id) {
    auto t = std::make_unique<TimedScheduler>(inner(host_id));
    timed.push_back(t.get());
    return t;
  };
}

// -- spike_serving / saturated_1m: runner::run_scenario on a KV fleet -----------

numa::MachineConfig machine_by_name(const std::string& name) {
  return name == "four_node" ? numa::MachineConfig::four_node_server()
                             : numa::MachineConfig::xeon_e5620();
}

/// Replica of runner::run_scenario for cluster scenarios whose apps are all
/// kind=kv (open loop, SLO and churn supported; no scripted migrations or
/// balancer); keep in lockstep with run_cluster_scenario in
/// src/runner/scenario_file.cpp.
Traced replica_kv_fleet(const runner::ScenarioSpec& spec, SpanLog& log,
                        std::int64_t parent) {
  if (!spec.cluster_mode() || !spec.migrations.empty() || spec.balance_enabled ||
      std::any_of(spec.apps.begin(), spec.apps.end(),
                  [](const auto& a) { return a.kind != "kv"; })) {
    throw std::invalid_argument("replica_kv_fleet: only kv-app cluster scenarios");
  }
  runner::SchedulerOptions opts;
  opts.sampling_period = sim::Time::seconds(spec.sampling_s);

  std::vector<cluster::HostSpec> hosts;
  for (const auto& m : spec.machines) {
    for (int i = 0; i < m.count; ++i) hosts.push_back({"", machine_by_name(m.kind)});
  }
  cluster::Config ccfg;
  ccfg.seed = spec.seed;
  ccfg.sim_threads = spec.sim_threads;
  ccfg.window_batch = spec.window_batch;
  ccfg.host_template.rate_cache = opts.rate_cache;
  std::vector<TimedScheduler*> timed;
  cluster::Cluster fleet(ccfg, hosts,
                         timed_factory(runner::scheduler_factory(spec.sched, opts), timed));

  std::map<std::string, int> vm_ids;
  for (const auto& vm : spec.vms) {
    cluster::VmSpec cvm;
    cvm.name = vm.name;
    cvm.mem_bytes = vm.mem_bytes;
    cvm.vcpus = vm.vcpus;
    cvm.policy = vm.policy;
    cvm.preferred = static_cast<numa::NodeId>(vm.preferred);
    cvm.alternate = vm.alternate;
    cvm.host = vm.host;
    const int id = fleet.admit(std::move(cvm));
    if (id < 0) throw std::invalid_argument("vm '" + vm.name + "' does not fit the fleet");
    vm_ids[vm.name] = id;
  }
  std::vector<std::unique_ptr<wl::RequestServer>> kv_servers;
  for (const auto& app : spec.apps) {
    const int vm_id = vm_ids.at(app.vm);
    auto vcpus = runner::domain_vcpus(*fleet.domain_of(vm_id));
    const auto from = static_cast<std::ptrdiff_t>(app.from);
    if (from >= static_cast<std::ptrdiff_t>(vcpus.size())) {
      throw std::invalid_argument("app 'from' beyond vm '" + app.vm + "' vcpus");
    }
    wl::RequestServer::Config kcfg;
    kcfg.profile = app.profile;
    kcfg.workers = app.threads;
    kcfg.instr_per_request = app.instr;
    kcfg.max_batch = app.batch;
    kcfg.name = app.vm + ":kv";
    std::vector<hv::Vcpu*> subset(vcpus.begin() + from, vcpus.end());
    kv_servers.push_back(std::make_unique<wl::RequestServer>(
        fleet.host(fleet.host_of(vm_id)), *fleet.domain_of(vm_id), kcfg, subset));
    if (spec.slo_ms > 0) kv_servers.back()->set_slo_threshold(spec.slo_ms / 1e3);
  }
  fleet.start();

  std::unique_ptr<runner::ChurnDriver> churn;
  if (spec.churn_enabled) {
    runner::ChurnOptions copts = spec.churn;
    if (copts.seed == 0) copts.seed = spec.seed;
    churn = std::make_unique<runner::ChurnDriver>(fleet, copts);
    churn->start();
  }
  std::unique_ptr<wl::OpenLoopClient> open_loop;
  if (spec.openloop_enabled) {
    wl::OpenLoopClient::Config ocfg;
    ocfg.rps = spec.openloop.rps;
    ocfg.start_s = spec.openloop.start_s;
    ocfg.seed = spec.openloop.seed != 0 ? spec.openloop.seed : spec.seed;
    ocfg.max_requests = spec.openloop.max_requests;
    ocfg.spike_at_s = spec.openloop.spike_at_s;
    ocfg.spike_until_s = spec.openloop.spike_until_s;
    ocfg.spike_x = spec.openloop.spike_x;
    ocfg.diurnal_period_s = spec.openloop.diurnal_period_s;
    ocfg.diurnal_amp = spec.openloop.diurnal_amp;
    ocfg.lazy = spec.lazy_arrivals;
    ocfg.balance = spec.openloop.balance == "p2c"
                       ? wl::OpenLoopClient::Config::Balance::kP2c
                       : wl::OpenLoopClient::Config::Balance::kRoundRobin;
    std::vector<wl::RequestServer*> targets;
    for (const auto& s : kv_servers) targets.push_back(s.get());
    open_loop = std::make_unique<wl::OpenLoopClient>(fleet.engine(), ocfg,
                                                     std::move(targets));
    open_loop->start();
  }

  Traced out;
  Slicer slicer(timed, log, parent, out.layers);
  slicer.run(sim::Time::seconds(spec.horizon_s), nullptr, [&] { return fleet.now(); },
             [&](sim::Time t) { fleet.run_until(t); });

  stats::RunMetrics& m = out.metrics;
  m.cluster.fleet_digest = fleet.fleet_digest();
  m.slo_threshold_s = spec.slo_ms / 1e3;
  if (open_loop) m.arrival_events = open_loop->arrival_events();
  for (const auto& s : kv_servers) {
    m.latency.merge(s->latency_hist());
    m.slo_violations += s->slo_violations();
    m.arrival_events += s->arrival_events();
    m.arrivals_coalesced += s->arrivals_coalesced();
    out.layers.requests += s->served();
  }
  out.layers.arrival_events = m.arrival_events;
  out.layers.arrivals_coalesced = m.arrivals_coalesced;
  add_cluster_layers(fleet, timed, out.layers);
  return out;
}

struct KvFleetShape {
  std::vector<runner::SchedKind> scheds;
  std::uint64_t first_seed = 0;
  int seeds = 1;
  double horizon_s = 1.0;
  double rps = 0.0;  ///< 0 keeps the scenario's rate
};

std::vector<Sim> kv_fleet(const KvFleetShape& shape, bool zero_horizon) {
  std::vector<Sim> sims;
  for (int k = 0; k < shape.seeds; ++k) {
    for (const runner::SchedKind sched : shape.scheds) {
      runner::ScenarioSpec spec = runner::parse_scenario(kSpikeFleet);
      spec.sched = sched;
      spec.seed = shape.first_seed + static_cast<std::uint64_t>(k);
      spec.horizon_s = zero_horizon ? 0.0 : shape.horizon_s;
      if (shape.rps > 0) spec.openloop.rps = shape.rps;
      sims.push_back(
          {std::string(runner::to_string(sched)) + "/seed" + std::to_string(spec.seed),
           [spec] { return runner::run_scenario(spec); },
           [spec](SpanLog& log, std::int64_t parent) {
             return replica_kv_fleet(spec, log, parent);
           },
           Compare::kFleet});
    }
  }
  return sims;
}

// -- fleet_pdes: the public cluster API under the PDES synchronizer -------------

struct FleetPdesShape {
  int hosts = 8;
  int threads = 2;
  sim::Time horizon = sim::Time::sec(15);
  std::uint64_t seed = 1;
};

/// 8-host heterogeneous fleet in the style of bench/pdes_scaling.cpp's
/// run_fleet: a hungry burner and a ticker per host, one scripted live
/// migration, the balancer and churn.  `drive` advances it to the horizon.
stats::RunMetrics run_fleet_pdes(
    const FleetPdesShape& shape, cluster::SchedulerFactory factory,
    const std::function<void(cluster::Cluster&, sim::Time)>& drive) {
  cluster::Config ccfg;
  ccfg.seed = shape.seed;
  ccfg.sim_threads = shape.threads;
  ccfg.balance_period = sim::Time::ms(300);
  ccfg.balance_threshold = 0.2;
  std::vector<cluster::HostSpec> hosts(static_cast<std::size_t>(shape.hosts));
  std::vector<std::string> kinds(hosts.size(), "xeon_e5620");
  for (std::size_t id = 1; id < hosts.size(); id += 2) {
    hosts[id].machine = numa::MachineConfig::four_node_server();
    kinds[id] = "four_node";
  }
  cluster::Cluster fleet(ccfg, hosts, std::move(factory));

  constexpr std::int64_t kMiB = 1024ll * 1024;
  int mover = -1;
  for (int id = 0; id < shape.hosts; ++id) {
    cluster::VmSpec burner;
    burner.name = "burner" + std::to_string(id);
    burner.mem_bytes = 512 * kMiB;
    burner.vcpus = 2;
    burner.host = id;
    burner.workload = runner::hungry_workload();
    burner.dirty_bytes_per_s = runner::hungry_dirty_rate(burner.mem_bytes);
    const int vm = fleet.admit(std::move(burner));
    if (id == 0) mover = vm;

    cluster::VmSpec ticker;
    ticker.name = "ticker" + std::to_string(id);
    ticker.mem_bytes = 256 * kMiB;
    ticker.vcpus = 2;
    ticker.host = id;
    ticker.workload = runner::ticker_workload();
    ticker.dirty_bytes_per_s = runner::ticker_dirty_rate(ticker.mem_bytes);
    fleet.admit(std::move(ticker));
  }
  fleet.start();
  fleet.engine().schedule_at(sim::Time::ms(50),
                             [&fleet, mover] { fleet.migrate(mover, 1); });

  runner::ChurnOptions copts;
  copts.seed = shape.seed;
  copts.mean_interarrival = sim::Time::ms(30);
  copts.mean_lifetime = sim::Time::ms(80);
  copts.max_live = 16;
  runner::ChurnDriver churn(fleet, copts);
  churn.start();

  drive(fleet, shape.horizon);

  stats::RunMetrics m;
  m.scheduler = "Credit";
  m.workload = "fleet_pdes";
  m.completed = true;
  double busy_total = 0.0;
  double overhead_total = 0.0;
  for (int id = 0; id < fleet.num_hosts(); ++id) {
    hv::Hypervisor& hv = fleet.host(id);
    m.migrations += hv.total_migrations();
    m.cross_node_migrations += hv.total_cross_node_migrations();
    busy_total += hv.total_busy_time().to_seconds();
    overhead_total += hv.overhead().paper_overhead().to_seconds();
    stats::HostMetrics host;
    host.name = fleet.host_name(id);
    host.machine = kinds[static_cast<std::size_t>(id)];
    host.domains = static_cast<int>(hv.domains().size());
    host.vcpus = static_cast<int>(hv.all_vcpus().size());
    host.busy_s = hv.total_busy_time().to_seconds();
    host.migrations = hv.total_migrations();
    host.cross_node_migrations = hv.total_cross_node_migrations();
    host.trace_records = fleet.tracer(id).total_recorded();
    host.trace_digest = fleet.tracer(id).digest();
    m.hosts.push_back(std::move(host));
  }
  m.overhead_fraction = busy_total > 0 ? overhead_total / busy_total : 0.0;
  m.sim_seconds = fleet.now().to_seconds();
  m.cluster.admitted = fleet.admitted();
  m.cluster.rejected = fleet.rejected();
  m.cluster.migrations_started = fleet.migrations_started();
  m.cluster.migrations_completed = fleet.migrations_completed();
  m.cluster.migrations_rejected = fleet.migrations_rejected();
  m.cluster.precopy_rounds = fleet.precopy_rounds();
  m.cluster.migrated_bytes = fleet.migrated_bytes();
  m.cluster.balance_actions = fleet.balance_actions();
  m.cluster.fleet_digest = fleet.fleet_digest();
  const cluster::SyncStats sync = fleet.sync_stats();
  m.cluster.sync_windows = sync.windows;
  m.cluster.sync_windows_coalesced = sync.windows_coalesced;
  m.cluster.sync_control_events = sync.control_events;
  m.cluster.sync_barriers = sync.barriers;
  m.cluster.sync_shard_dispatches = sync.shard_dispatches;
  m.cluster.sync_shard_skips = sync.shard_skips;
  m.cluster.pool_wakeups = sync.pool_wakeups;
  m.cluster.pool_spin_grabs = sync.pool_spin_grabs;
  m.cluster.pool_parks = sync.pool_parks;
  return m;
}

/// Four 15 s fleets per rep rather than one 60 s fleet: the same simulated
/// time, but no single seed's churn pattern sets the rep's cost.  Two
/// shards, not four: on a 4-core host shared with other work, a 4-shard
/// run stalls at a barrier whenever any other process takes a core, and
/// its run-to-run spread was about three times that of 2 shards.
std::vector<Sim> fleet_pdes(bool smoke, std::uint64_t seed, bool zero_horizon) {
  const int cores = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int seeds = smoke ? 1 : 4;
  std::vector<Sim> sims;
  for (int k = 0; k < seeds; ++k) {
    FleetPdesShape shape;
    shape.hosts = smoke ? 4 : 8;
    shape.threads = std::min(2, cores);
    shape.horizon = zero_horizon ? sim::Time::zero()
                                 : (smoke ? sim::Time::sec(1) : sim::Time::sec(15));
    shape.seed = seed + static_cast<std::uint64_t>(k);
    const auto credit = [] { return runner::scheduler_factory(runner::SchedKind::kCredit); };
    sims.push_back(
        {"Credit/seed" + std::to_string(shape.seed),
         [shape, credit] {
           return run_fleet_pdes(shape, credit(),
                                 [](cluster::Cluster& fleet, sim::Time horizon) {
                                   runner::run_cluster_until(fleet, nullptr, horizon);
                                 });
         },
         [shape, credit](SpanLog& log, std::int64_t parent) {
           Traced out;
           std::vector<TimedScheduler*> timed;
           out.metrics = run_fleet_pdes(
               shape, timed_factory(credit(), timed),
               [&](cluster::Cluster& fleet, sim::Time horizon) {
                 Slicer slicer(timed, log, parent, out.layers);
                 slicer.run(horizon, nullptr, [&] { return fleet.now(); },
                            [&](sim::Time t) { fleet.run_until(t); });
                 add_cluster_layers(fleet, timed, out.layers);
               });
           return out;
         },
         Compare::kJson});
  }
  return sims;
}

}  // namespace

SpanLog::SpanLog() : epoch_(Clock::now()) {}

std::int64_t SpanLog::now_ns() const { return ns_between(epoch_, Clock::now()); }

std::int64_t SpanLog::open(std::string name, std::int64_t parent) {
  Span span;
  span.id = static_cast<std::int64_t>(spans_.size());
  span.parent = parent;
  span.name = std::move(name);
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::close(std::int64_t id, std::uint64_t hook_calls, std::int64_t hook_ns) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_ns = now_ns();
  span.hook_calls = hook_calls;
  span.hook_ns = hook_ns;
}

void SpanLog::write_jsonl(std::ostream& out, const std::string& workload) const {
  for (const Span& s : spans_) {
    stats::JsonWriter json(out);
    json.begin_object()
        .member("workload", workload)
        .member("id", s.id)
        .member("parent", s.parent)
        .member("name", s.name)
        .member("start_ns", s.start_ns)
        .member("end_ns", s.end_ns)
        .member("hook_calls", s.hook_calls)
        .member("hook_ns", s.hook_ns)
        .member("self_ns", s.end_ns - s.start_ns - s.hook_ns)
        .end_object();
    out << '\n';
  }
}

Layers& Layers::operator+=(const Layers& o) {
  hooks += o.hooks;
  events += o.events;
  partition_rounds += o.partition_rounds;
  partition_moves += o.partition_moves;
  rate_hits += o.rate_hits;
  rate_misses += o.rate_misses;
  arrival_events += o.arrival_events;
  arrivals_coalesced += o.arrivals_coalesced;
  requests += o.requests;
  sync.windows += o.sync.windows;
  sync.windows_coalesced += o.sync.windows_coalesced;
  sync.control_events += o.sync.control_events;
  sync.barriers += o.sync.barriers;
  sync.shard_dispatches += o.sync.shard_dispatches;
  sync.shard_skips += o.sync.shard_skips;
  sync.pool_wakeups += o.sync.pool_wakeups;
  sync.pool_spin_grabs += o.sync.pool_spin_grabs;
  sync.pool_parks += o.sync.pool_parks;
  migrations_completed += o.migrations_completed;
  precopy_rounds += o.precopy_rounds;
  trace_records += o.trace_records;
  run_ns += o.run_ns;
  slice_ms.insert(slice_ms.end(), o.slice_ms.begin(), o.slice_ms.end());
  return *this;
}

std::vector<Workload> make_workloads(bool smoke) {
  using runner::SchedKind;
  const std::vector<SchedKind> all(runner::all_schedulers().begin(),
                                   runner::all_schedulers().end());
  const std::vector<SchedKind> pair = {SchedKind::kCredit, SchedKind::kVprobe};
  return {
      {"paper_mix",
       "the paper's Fig 4 SPEC mix at paper scale: the most events and cost-model "
       "lookups per rep; scheduler hooks take sched.share 0.14",
       [smoke](std::uint64_t seed, bool zero) { return paper_mix(smoke, seed, zero); }},
      {"spike_serving",
       "spike_fleet serving: request-sized wake/sleep storms, lazy arrivals "
       "waking idle workers; scheduler hooks take sched.share 0.28",
       [smoke, all, pair](std::uint64_t seed, bool zero) {
         return kv_fleet({smoke ? pair : all, seed + 6, smoke ? 1 : 3,
                          smoke ? 0.2 : 1.0, 0.0},
                         zero);
       }},
      {"saturated_1m",
       "the same fleet at 1M rps: bulk arrival absorb and a growing backlog; "
       "scheduler hooks take sched.share 0.015",
       [smoke](std::uint64_t seed, bool zero) {
         return kv_fleet({{SchedKind::kVprobe}, seed + 6, smoke ? 1 : 8,
                          smoke ? 0.1 : 2.0, 1e6},
                         zero);
       }},
      {"fleet_pdes",
       "8-host Credit fleet on 2 PDES shards: synchronizer, shard pool and "
       "control plane; Credit's hooks take sched.share 0.67, the most of the four",
       [smoke](std::uint64_t seed, bool zero) {
         return fleet_pdes(smoke, seed + 6, zero);
       }},
  };
}

Workload make_cut_short_workload() {
  return {"cut_short",
          "smoke gate only: a smoke-size SPEC mix stopped at 10 ms, before any "
          "app has finished, then one that completes",
          [](std::uint64_t seed, bool zero) {
            runner::RunConfig cut;
            cut.seed = seed;
            cut.instr_scale = 0.02;
            runner::RunConfig whole = cut;
            whole.sched = runner::SchedKind::kVprobe;  // a label of its own
            cut.horizon = zero ? sim::Time::zero() : sim::Time::ms(10);
            if (zero) whole.horizon = sim::Time::zero();
            return std::vector<Sim>{spec_mix_sim(cut), spec_mix_sim(whole)};
          }};
}

std::uint64_t output_digest(const stats::RunMetrics& metrics) {
  stats::RunMetrics m = metrics;
  m.cluster.sync_windows = m.cluster.sync_windows_coalesced = 0;
  m.cluster.sync_control_events = m.cluster.sync_barriers = 0;
  m.cluster.sync_shard_dispatches = m.cluster.sync_shard_skips = 0;
  m.cluster.pool_wakeups = m.cluster.pool_spin_grabs = m.cluster.pool_parks = 0;
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64
  for (const char c : stats::to_json(m)) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

bool same_output(const stats::RunMetrics& entry, const stats::RunMetrics& replica,
                 Compare how) {
  if (how == Compare::kJson) return output_digest(entry) == output_digest(replica);
  return entry.cluster.fleet_digest == replica.cluster.fleet_digest &&
         entry.latency == replica.latency &&
         entry.slo_violations == replica.slo_violations;
}

double normalized_vprobe_mix(const std::vector<stats::RunMetrics>& outputs) {
  double vprobe = 0.0;
  double credit = 0.0;
  int nv = 0;
  int nc = 0;
  for (const stats::RunMetrics& m : outputs) {
    if (m.scheduler == runner::to_string(runner::SchedKind::kVprobe)) {
      vprobe += m.avg_runtime_s;
      ++nv;
    } else if (m.scheduler == runner::to_string(runner::SchedKind::kCredit)) {
      credit += m.avg_runtime_s;
      ++nc;
    }
  }
  if (nv == 0 || nc == 0 || credit <= 0) return 0.0;
  return (vprobe / nv) / (credit / nc);
}

}  // namespace perfsuite
