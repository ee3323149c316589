// Dynamic consolidation under VM churn (beyond the paper's static sets).
//
// The paper's experiments hold the VM population fixed; a consolidation
// host sees VMs boot, pause and depart continuously.  This bench measures
// how each scheduler's placement quality holds up when the background
// population churns: one measured VM runs four SPEC instances to
// completion while a seeded arrival/departure process creates and destroys
// interfering VMs around it.  Churn stresses exactly the state the static
// figures never touch — samplers dropping VCPUs mid-window, partition
// plans going stale against a different VM set, run queues shrinking under
// the load balancer.
//
// Reported per scheduler: measured runtime (normalized to Credit), remote
// access ratio, migrations, and the churn process statistics (identical
// across schedulers by construction — the driver has its own Rng stream).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "runner/churn.hpp"
#include "runner/fleet.hpp"
#include "runner/scenario.hpp"
#include "stats/metrics.hpp"
#include "workload/spec.hpp"

namespace {

using namespace vprobe;  // NOLINT

struct ChurnResult {
  stats::RunMetrics metrics;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t pauses = 0;
  std::uint64_t resumes = 0;
};

ChurnResult run_one(runner::SchedKind kind, const runner::RunConfig& cfg) {
  runner::SchedulerOptions sopts;
  sopts.sampling_period = cfg.sampling_period;
  // One host under the control plane, which places (or refuses) every
  // churn arrival.  Nothing reads the host's trace, so it records none.
  cluster::Config ccfg;
  ccfg.seed = cfg.seed;
  ccfg.trace_capacity = 1;
  ccfg.host_template.rate_cache = sopts.rate_cache;
  const std::vector<cluster::HostSpec> hosts(1);
  cluster::Cluster fleet(ccfg, hosts, runner::scheduler_factory(kind, sopts));
  hv::Hypervisor& hv = fleet.host(0);
  hv.set_tracer(nullptr);

  // The measured VM: 6 GB, 4 VCPUs, one SPEC instance per VCPU.
  cluster::VmSpec measured;
  measured.name = "VM1";
  measured.mem_bytes = 6ll << 30;
  measured.vcpus = 4;
  hv::Domain& vm1 = *fleet.domain_of(fleet.admit(std::move(measured)));
  auto vcpus = runner::domain_vcpus(vm1);
  std::vector<std::unique_ptr<wl::SpecApp>> apps;
  const char* profiles[] = {"soplex", "mcf", "milc", "libquantum"};
  for (std::size_t i = 0; i < vcpus.size(); ++i) {
    apps.push_back(std::make_unique<wl::SpecApp>(
        hv, vm1, *vcpus[i], profiles[i % 4], cfg.instr_scale));
  }

  fleet.start();
  for (auto& app : apps) app->start();

  runner::ChurnOptions copts;
  copts.seed = cfg.seed;
  copts.mean_interarrival = sim::Time::ms(80);
  copts.mean_lifetime = sim::Time::ms(200);
  copts.pause_probability = 0.3;
  copts.mean_pause = sim::Time::ms(30);
  copts.max_live = 6;
  copts.min_vcpus = 1;
  copts.max_vcpus = 4;
  copts.min_mem_bytes = 256ll << 20;
  copts.max_mem_bytes = 1ll << 30;
  runner::ChurnDriver churn(fleet, copts);
  churn.start();

  const bool done = runner::run_cluster_until(
      fleet,
      [&] {
        for (const auto& app : apps) {
          if (!app->finished()) return false;
        }
        return true;
      },
      sim::Time::sec(600));

  ChurnResult out;
  out.metrics.scheduler = runner::to_string(kind);
  out.metrics.workload = "churn_consolidation";
  out.metrics.completed = done;
  for (const auto& app : apps) {
    out.metrics.app_runtime_s[app->name()] =
        app->finished() ? app->runtime().to_seconds() : 0.0;
  }
  out.metrics.finalize();
  const pmu::CounterSet counters = vm1.total_counters();
  out.metrics.total_mem_accesses = counters.total_mem_accesses();
  out.metrics.remote_mem_accesses = counters.remote_accesses;
  out.metrics.migrations = hv.total_migrations();
  out.metrics.cross_node_migrations = hv.total_cross_node_migrations();
  out.metrics.sim_seconds = fleet.now().to_seconds();
  out.arrivals = churn.arrivals();
  out.departures = churn.departures();
  out.pauses = churn.pauses();
  out.resumes = churn.resumes();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vprobe;  // NOLINT

  runner::Cli cli(argc, argv);
  cli.require_known({"smoke"}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "VM churn consolidation: measured SPEC VM vs dynamic background",
          "  --smoke             tiny run, exit nonzero on invariant trouble\n")) {
    return 0;
  }
  runner::BenchFlags flags = runner::parse_bench_flags(cli, 0.05);
  if (cli.has("smoke")) flags.config.instr_scale = 0.01;

  bench::print_header("VM churn consolidation (dynamic scenario)", flags);

  const auto kinds = runner::sweep_schedulers(flags);
  std::vector<ChurnResult> results;
  for (auto kind : kinds) {
    results.push_back(run_one(kind, flags.config));
  }

  stats::Table table(bench::sched_headers("metric", kinds));
  std::vector<double> runtime, remote, migrations;
  for (const auto& r : results) {
    runtime.push_back(r.metrics.avg_runtime_s);
    remote.push_back(r.metrics.remote_access_ratio());
    migrations.push_back(static_cast<double>(r.metrics.migrations));
  }
  table.add_row("runtime (norm)", runner::normalize_to_first(runtime));
  table.add_row("remote ratio", remote);
  table.add_row("migrations", migrations);
  table.print();

  const ChurnResult& first = results.front();
  std::printf("\nchurn: %llu arrivals, %llu departures, %llu pauses, %llu resumes\n",
              static_cast<unsigned long long>(first.arrivals),
              static_cast<unsigned long long>(first.departures),
              static_cast<unsigned long long>(first.pauses),
              static_cast<unsigned long long>(first.resumes));

  std::vector<stats::RunMetrics> metrics;
  for (const auto& r : results) metrics.push_back(r.metrics);
  bench::maybe_dump_json(flags, metrics);

  if (cli.has("smoke")) {
    // Sanity gate for CI: every scheduler must finish the measured apps and
    // the churn process must have exercised arrivals AND departures.
    for (const auto& r : results) {
      if (!r.metrics.completed) {
        std::fprintf(stderr, "smoke: %s hit the horizon\n",
                     r.metrics.scheduler.c_str());
        return 1;
      }
    }
    if (first.arrivals == 0 || first.departures == 0) {
      std::fprintf(stderr, "smoke: churn process generated no lifecycle churn\n");
      return 1;
    }
  }
  return 0;
}
