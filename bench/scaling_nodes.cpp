// Node-count scaling (beyond the paper): the paper's testbed has two NUMA
// nodes; vProbe's algorithms are written for N.  This bench runs the same
// consolidation pattern on the paper's 2-node Xeon and on a 4-node server
// and reports Credit vs vProbe — checking that the partitioning and the
// NUMA-aware balance generalise (and that their benefit grows with node
// count, since random placement gets *worse* on more nodes: an oblivious
// scheduler leaves (N-1)/N of accesses remote).
#include "bench_common.hpp"

#include <algorithm>

#include "workload/hungry.hpp"
#include "workload/spec.hpp"

using namespace vprobe;

namespace {

constexpr std::int64_t kGB = 1024ll * 1024 * 1024;

/// One consolidation run on `machine` — a custom RunPlan job, so the
/// executor handles the repeat/seed expansion and averaging.
stats::RunMetrics run(const numa::MachineConfig& machine,
                      runner::SchedKind kind, const runner::RunConfig& cfg) {
  auto hv = runner::make_hypervisor(kind, cfg.seed, {}, machine);
  const int nodes = machine.num_nodes;

  // One tenant VM per node's worth of memory (fill-first spreads them),
  // each running four memory-intensive instances; one hog VM per node.
  std::vector<hv::Domain*> tenants;
  std::vector<std::unique_ptr<wl::SpecApp>> apps;
  for (int n = 0; n < nodes; ++n) {
    hv::Domain& dom = hv->create_domain(
        "tenant" + std::to_string(n), (machine.mem_bytes_per_node / kGB - 2) * kGB,
        8, numa::PlacementPolicy::kFillFirst, n);
    dom.memory().alternate_allocation(true);
    tenants.push_back(&dom);
    for (int i = 0; i < 4; ++i) {
      apps.push_back(std::make_unique<wl::SpecApp>(
          *hv, dom, dom.vcpu(static_cast<std::size_t>(i)), "milc",
          cfg.instr_scale, "milc@" + std::to_string(n) + "#" + std::to_string(i)));
    }
  }
  // Oversubscribed, like every scenario in the paper: CPU hogs fill every
  // PCPU so the run queues are never empty.  (In an *exactly* committed
  // system — one runnable VCPU per PCPU — periodic repartitioning opens
  // transient holes that idle-stealing refills, which can ping-pong; the
  // paper never evaluates that regime.)
  hv::Domain& hogs = hv->create_domain("hogs", 1 * kGB, machine.total_pcpus(),
                                       numa::PlacementPolicy::kFillFirst, 0);
  wl::HungryLoops hungry(*hv, hogs, runner::domain_vcpus(hogs));

  hv->start();
  hungry.start();
  int launch = 0;
  for (auto& a : apps) {
    hv->engine().schedule(sim::Time::ms(5 * ++launch),
                          [app = a.get()] { app->start(); });
  }

  stats::RunMetrics out;
  out.scheduler = runner::to_string(kind);
  out.workload = "scaling:" + std::to_string(nodes) + "-node";
  out.completed = runner::run_until(
      *hv,
      [&] {
        return std::all_of(apps.begin(), apps.end(),
                           [](const auto& a) { return a->finished(); });
      },
      sim::Time::sec(3600));

  pmu::CounterSet counters;
  for (auto& a : apps) {
    out.app_runtime_s[a->name()] = a->runtime().to_seconds();
  }
  out.finalize();
  for (hv::Domain* dom : tenants) counters += dom->total_counters();
  out.total_mem_accesses = counters.total_mem_accesses();
  out.remote_mem_accesses = counters.remote_accesses;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "Scaling: vProbe on 2-node vs 4-node machines"))
    return 0;
  const runner::BenchFlags flags = runner::parse_bench_flags(cli, 0.1);
  bench::print_header("Scaling: vProbe on 2-node vs 4-node machines", flags);

  const std::vector<std::pair<const char*, numa::MachineConfig>> machines = {
      {"2-node Xeon E5620", numa::MachineConfig::xeon_e5620()},
      {"4-node server", numa::MachineConfig::four_node_server()}};
  const runner::SchedKind kinds[] = {runner::SchedKind::kCredit,
                                     runner::SchedKind::kVprobe};

  runner::RunPlan plan;
  for (const auto& [label, machine] : machines) {
    for (runner::SchedKind kind : kinds) {
      plan.add(runner::RunSpec{
          flags.config,
          std::string(label) + "/" + runner::to_string(kind),
          [machine, kind](const runner::RunConfig& cfg) {
            return run(machine, kind, cfg);
          }});
    }
  }
  const auto runs = bench::execute_plan(plan, flags);

  stats::Table table({"machine", "scheduler", "avg milc runtime (s)",
                      "remote ratio (%)", "vProbe gain (%)"});
  for (std::size_t m = 0; m < machines.size(); ++m) {
    const stats::RunMetrics& credit = runs[m * 2];
    const stats::RunMetrics& vprobe = runs[m * 2 + 1];
    const double gain =
        (1.0 - vprobe.avg_runtime_s / credit.avg_runtime_s) * 100.0;
    table.add_row({machines[m].first, "Credit",
                   stats::fmt(credit.avg_runtime_s, "%.3f"),
                   stats::fmt(credit.remote_access_ratio() * 100.0, "%.1f"),
                   "-"});
    table.add_row({machines[m].first, "vProbe",
                   stats::fmt(vprobe.avg_runtime_s, "%.3f"),
                   stats::fmt(vprobe.remote_access_ratio() * 100.0, "%.1f"),
                   stats::fmt(gain, "%.1f")});
  }
  table.print();
  std::printf(
      "\nExpectation: the NUMA-oblivious baseline leaves roughly (N-1)/N of"
      " accesses remote, so vProbe's headroom grows with node count.\n");
  bench::maybe_dump_json(flags, runs);
  return 0;
}
