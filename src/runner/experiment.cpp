#include "runner/experiment.hpp"

#include "runner/run_plan.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "check/invariants.hpp"
#include "workload/hungry.hpp"
#include "workload/memcached.hpp"
#include "workload/npb.hpp"
#include "workload/os_ticker.hpp"
#include "workload/redis.hpp"
#include "workload/spec.hpp"

namespace vprobe::runner {
namespace {

constexpr std::int64_t kGB = 1024ll * 1024 * 1024;

SchedulerOptions scheduler_options(const RunConfig& config) {
  SchedulerOptions opts;
  opts.sampling_period = config.sampling_period;
  opts.dynamic_bounds = config.dynamic_bounds;
  opts.rate_cache = config.rate_cache;
  return opts;
}

/// Fill in the metrics every experiment reports the same way.
void collect_common(stats::RunMetrics& m, hv::Hypervisor& hv,
                    hv::Domain& measured) {
  const pmu::CounterSet totals = measured.total_counters();
  m.total_mem_accesses = totals.total_mem_accesses();
  m.remote_mem_accesses = totals.remote_accesses;
  m.migrations = hv.total_migrations();
  m.cross_node_migrations = hv.total_cross_node_migrations();
  const double busy_s = hv.total_busy_time().to_seconds();
  m.overhead_fraction =
      busy_s > 0 ? hv.overhead().paper_overhead().to_seconds() / busy_s : 0.0;
  m.sim_seconds = hv.now().to_seconds();
}

/// Instance counts per VM for a SPEC app.  Section V-B1 runs four identical
/// instances each, except mcf whose 1.7 GB footprint only fits 6 in the
/// 15 GB VM1 and 2 in the 5 GB VM2.  The Figure 1 setup (8 GB VMs) runs
/// four everywhere.
std::pair<int, int> spec_instance_counts(std::string_view app, bool fig1) {
  if (app == "mcf" && !fig1) return {6, 2};
  return {4, 4};
}

std::vector<std::string_view> spec_mix_apps() {
  return {"soplex", "libquantum", "mcf", "milc"};
}

VmSizes vm_sizes(const RunConfig& config) {
  if (config.fig1_memory_config) return VmSizes{8, 8, 2};
  return VmSizes{};
}

/// Guest-kernel housekeeping on the domain's VCPUs that carry no app
/// thread (a real guest's online VCPUs are never completely silent).
std::unique_ptr<wl::GuestOsTicks> guest_ticks(hv::Hypervisor& hv,
                                              hv::Domain& dom,
                                              std::size_t first_unused) {
  std::vector<hv::Vcpu*> spare;
  for (std::size_t i = first_unused; i < dom.num_vcpus(); ++i) {
    spare.push_back(&dom.vcpu(i));
  }
  if (spare.empty()) return nullptr;
  auto ticks = std::make_unique<wl::GuestOsTicks>(hv, dom, spare);
  ticks->start();
  return ticks;
}

}  // namespace

stats::RunMetrics run_spec_single(const RunConfig& config, std::string_view app) {
  auto hv = make_hypervisor(config.sched, config.seed, scheduler_options(config));
  check::ScopedCheck check(*hv, config.checks);
  StandardVms vms = create_standard_vms(*hv, vm_sizes(config));

  auto make_instances = [&](hv::Domain& dom, int count,
                            std::vector<std::string_view> apps) {
    std::vector<std::unique_ptr<wl::SpecApp>> result;
    auto vcpus = domain_vcpus(dom);
    for (int i = 0; i < count; ++i) {
      const std::string_view prof = apps[static_cast<std::size_t>(i) % apps.size()];
      result.push_back(std::make_unique<wl::SpecApp>(
          *hv, dom, *vcpus[static_cast<std::size_t>(i) % vcpus.size()], prof,
          config.instr_scale,
          std::string(prof) + "#" + std::to_string(i)));
    }
    return result;
  };

  std::vector<std::unique_ptr<wl::SpecApp>> vm1_apps;
  std::vector<std::unique_ptr<wl::SpecApp>> vm2_apps;
  if (app == "mix") {
    vm1_apps = make_instances(*vms.vm1, 4, spec_mix_apps());
    vm2_apps = make_instances(*vms.vm2, 4, spec_mix_apps());
  } else {
    const auto [n1, n2] = spec_instance_counts(app, config.fig1_memory_config);
    vm1_apps = make_instances(*vms.vm1, n1, {app});
    vm2_apps = make_instances(*vms.vm2, n2, {app});
  }
  wl::HungryLoops hungry(*hv, *vms.vm3, domain_vcpus(*vms.vm3));

  // Interference first, then staggered app launches (the paper starts the
  // hungry loops before the measured workloads; nothing in a real cluster
  // execs at the same nanosecond).
  hv->start();
  hungry.start();
  auto ticks1 = guest_ticks(*hv, *vms.vm1, vm1_apps.size());
  auto ticks2 = guest_ticks(*hv, *vms.vm2, vm2_apps.size());
  int launch = 0;
  for (auto& a : vm1_apps) {
    hv->engine().schedule(sim::Time::ms(10 * ++launch),
                          [app = a.get()] { app->start(); });
  }
  for (auto& a : vm2_apps) {
    hv->engine().schedule(sim::Time::ms(10 * ++launch),
                          [app = a.get()] { app->start(); });
  }

  const bool done = run_until(
      *hv,
      [&] {
        return std::all_of(vm1_apps.begin(), vm1_apps.end(),
                           [](const auto& a) { return a->finished(); });
      },
      config.horizon);
  check.expect_ok();

  stats::RunMetrics m;
  m.scheduler = to_string(config.sched);
  m.workload = std::string("spec:") + std::string(app);
  m.completed = done;
  for (auto& a : vm1_apps) {
    m.app_runtime_s[a->name()] = a->finished() ? a->runtime().to_seconds() : 0.0;
  }
  m.finalize();
  collect_common(m, *hv, *vms.vm1);
  return m;
}

stats::RunMetrics run_npb_single(const RunConfig& config, std::string_view app) {
  auto hv = make_hypervisor(config.sched, config.seed, scheduler_options(config));
  check::ScopedCheck check(*hv, config.checks);
  StandardVms vms = create_standard_vms(*hv, vm_sizes(config));

  wl::NpbApp::Config ncfg;
  ncfg.profile = std::string(app);
  ncfg.instr_scale = config.instr_scale;

  auto vm1_vcpus = domain_vcpus(*vms.vm1);
  auto vm2_vcpus = domain_vcpus(*vms.vm2);
  wl::NpbApp app1(*hv, *vms.vm1, ncfg, vm1_vcpus);
  wl::NpbApp app2(*hv, *vms.vm2, ncfg, vm2_vcpus);
  wl::HungryLoops hungry(*hv, *vms.vm3, domain_vcpus(*vms.vm3));

  hv->start();
  hungry.start();
  auto ticks1 = guest_ticks(*hv, *vms.vm1,
                            static_cast<std::size_t>(ncfg.threads));
  auto ticks2 = guest_ticks(*hv, *vms.vm2,
                            static_cast<std::size_t>(ncfg.threads));
  hv->engine().schedule(sim::Time::ms(10), [&app1] { app1.start(); });
  hv->engine().schedule(sim::Time::ms(20), [&app2] { app2.start(); });

  const bool done = run_until(*hv, [&] { return app1.finished(); }, config.horizon);
  check.expect_ok();

  stats::RunMetrics m;
  m.scheduler = to_string(config.sched);
  m.workload = std::string("npb:") + std::string(app);
  m.completed = done;
  m.app_runtime_s[app1.name()] = app1.finished() ? app1.runtime().to_seconds() : 0.0;
  m.finalize();
  collect_common(m, *hv, *vms.vm1);
  return m;
}

stats::RunMetrics run_memcached_single(const RunConfig& config, int concurrency,
                                       std::uint64_t total_ops) {
  auto hv = make_hypervisor(config.sched, config.seed, scheduler_options(config));
  check::ScopedCheck check(*hv, config.checks);
  StandardVms vms = create_standard_vms(*hv, vm_sizes(config));

  auto vm1_vcpus = domain_vcpus(*vms.vm1);
  auto vm2_vcpus = domain_vcpus(*vms.vm2);
  wl::RequestServer server1(*hv, *vms.vm1,
                            wl::memcached_server_config("memcached1"), vm1_vcpus);
  wl::RequestServer server2(*hv, *vms.vm2,
                            wl::memcached_server_config("memcached2"), vm2_vcpus);
  wl::HungryLoops hungry(*hv, *vms.vm3, domain_vcpus(*vms.vm3));

  wl::MemslapClient::Config ccfg;
  ccfg.concurrency = concurrency;
  ccfg.total_ops = total_ops;
  wl::MemslapClient client1(*hv, ccfg, {&server1});
  wl::MemslapClient client2(*hv, ccfg, {&server2});

  hv->start();
  hungry.start();
  hv->engine().schedule(sim::Time::ms(10), [&client1] { client1.start(); });
  hv->engine().schedule(sim::Time::ms(20), [&client2] { client2.start(); });

  const bool done = run_until(*hv, [&] { return client1.finished(); }, config.horizon);
  check.expect_ok();

  stats::RunMetrics m;
  m.scheduler = to_string(config.sched);
  m.workload = "memcached:c" + std::to_string(concurrency);
  m.completed = done;
  m.app_runtime_s["memcached"] = client1.finished() ? client1.runtime().to_seconds() : 0.0;
  m.finalize();
  m.throughput_rps = client1.throughput_ops_per_s();
  m.latency = server1.latency_hist();
  collect_common(m, *hv, *vms.vm1);
  return m;
}

stats::RunMetrics run_redis_single(const RunConfig& config, int connections,
                                   std::uint64_t total_requests) {
  auto hv = make_hypervisor(config.sched, config.seed, scheduler_options(config));
  check::ScopedCheck check(*hv, config.checks);
  StandardVms vms = create_standard_vms(*hv, vm_sizes(config));

  wl::RedisWorkload::Config rcfg;
  rcfg.connections = connections;
  rcfg.total_requests = total_requests;

  auto vm1_vcpus = domain_vcpus(*vms.vm1);
  auto vm2_vcpus = domain_vcpus(*vms.vm2);
  wl::RedisWorkload redis(*hv, *vms.vm1, *vms.vm2, rcfg, vm1_vcpus, vm2_vcpus);
  wl::HungryLoops hungry(*hv, *vms.vm3, domain_vcpus(*vms.vm3));

  hv->start();
  hungry.start();
  auto ticks1 = guest_ticks(*hv, *vms.vm1,
                            std::size_t{wl::RedisWorkload::kPairs});
  auto ticks2 = guest_ticks(*hv, *vms.vm2,
                            std::size_t{wl::RedisWorkload::kPairs});
  hv->engine().schedule(sim::Time::ms(10), [&redis] { redis.start(); });

  const bool done = run_until(*hv, [&] { return redis.finished(); }, config.horizon);
  check.expect_ok();

  stats::RunMetrics m;
  m.scheduler = to_string(config.sched);
  m.workload = "redis:p" + std::to_string(connections);
  m.completed = done;
  m.app_runtime_s["redis"] = redis.finished() ? redis.runtime().to_seconds() : 0.0;
  m.finalize();
  m.throughput_rps = redis.throughput_rps();
  m.latency = redis.server().latency_hist();
  collect_common(m, *hv, *vms.vm1);
  return m;
}

static SoloMetrics run_solo_impl(const RunConfig& config, std::string_view app) {
  // Figure 3 setup: one VM, 4 GB, a single VCPU *pinned* to its memory's
  // node (the paper pins it to the local node).
  auto hv = make_hypervisor(SchedKind::kCredit, config.seed);
  check::ScopedCheck check(*hv, config.checks);
  hv::Domain& dom = hv->create_domain("VM1", 4 * kGB, 1,
                                      numa::PlacementPolicy::kOnNode, 0);
  dom.vcpu(0).pin_to(0);
  wl::SpecApp instance(*hv, dom, dom.vcpu(0), app, config.instr_scale);

  hv->start();
  instance.start();
  const bool done =
      run_until(*hv, [&] { return instance.finished(); }, config.horizon);
  check.expect_ok();
  if (!done) throw std::runtime_error("run_solo: app did not finish");

  const pmu::CounterSet c = dom.vcpu(0).pmu.cumulative();
  SoloMetrics sm;
  sm.llc_miss_rate = c.llc_refs > 0 ? c.llc_misses / c.llc_refs : 0.0;
  sm.rpti = c.instr_retired > 0 ? c.llc_refs / c.instr_retired * 1000.0 : 0.0;
  sm.runtime_s = instance.runtime().to_seconds();
  return sm;
}

stats::RunMetrics run_overhead_single(const RunConfig& config, int num_vms) {
  RunConfig cfg = config;
  cfg.sched = SchedKind::kVprobe;
  auto hv = make_hypervisor(cfg.sched, cfg.seed, scheduler_options(cfg));
  check::ScopedCheck check(*hv, cfg.checks);

  std::vector<hv::Domain*> doms;
  std::vector<std::unique_ptr<wl::SpecApp>> apps;
  for (int d = 0; d < num_vms; ++d) {
    hv::Domain& dom = hv->create_domain("VM" + std::to_string(d + 1), 4 * kGB, 2,
                                        numa::PlacementPolicy::kFillFirst, 0);
    doms.push_back(&dom);
    for (int i = 0; i < 2; ++i) {
      apps.push_back(std::make_unique<wl::SpecApp>(
          *hv, dom, dom.vcpu(static_cast<std::size_t>(i)), "soplex",
          cfg.instr_scale,
          "soplex@vm" + std::to_string(d + 1) + "#" + std::to_string(i)));
    }
  }

  hv->start();
  for (auto& a : apps) a->start();

  const bool done = run_until(
      *hv,
      [&] {
        return std::all_of(apps.begin(), apps.end(),
                           [](const auto& a) { return a->finished(); });
      },
      cfg.horizon);
  check.expect_ok();

  stats::RunMetrics m;
  m.scheduler = to_string(cfg.sched);
  m.workload = "overhead:" + std::to_string(num_vms) + "vms";
  m.completed = done;
  for (auto& a : apps) {
    m.app_runtime_s[a->name()] = a->finished() ? a->runtime().to_seconds() : 0.0;
  }
  m.finalize();
  collect_common(m, *hv, *doms.front());
  return m;
}


// -- Public entry points: seed-averaged wrappers ------------------------------
//
// The repeats loop lives in the RunPlan executor now; these wrappers run a
// one-job plan serially, which keeps the averaging math (and its results)
// in exactly one place.

static stats::RunMetrics one_job(RunSpec spec) {
  RunPlan plan;
  plan.add(std::move(spec));
  auto results = ParallelExecutor(ExecutorOptions{}).run(plan);
  RunResult& r = results.front();
  if (!r.ok()) throw std::runtime_error(r.error);
  return std::move(r.metrics);
}

stats::RunMetrics run_spec(const RunConfig& config, std::string_view app) {
  return one_job(RunSpec::spec(config, app));
}

stats::RunMetrics run_npb(const RunConfig& config, std::string_view app) {
  return one_job(RunSpec::npb(config, app));
}

stats::RunMetrics run_memcached(const RunConfig& config, int concurrency,
                                std::uint64_t total_ops) {
  return one_job(RunSpec::memcached(config, concurrency, total_ops));
}

stats::RunMetrics run_redis(const RunConfig& config, int connections,
                            std::uint64_t total_requests) {
  return one_job(RunSpec::redis(config, connections, total_requests));
}

stats::RunMetrics run_overhead(const RunConfig& config, int num_vms) {
  return one_job(RunSpec::overhead(config, num_vms));
}

SoloMetrics run_solo(const RunConfig& config, std::string_view app) {
  return run_solo_impl(config, app);
}

}  // namespace vprobe::runner
