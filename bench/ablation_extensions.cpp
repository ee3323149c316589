// Ablation bench for the paper's Section VI future-work extensions, which
// this reproduction implements:
//
//   (1) Dynamic VCPU-type bounds — vProbe with runtime-adapted Equation (3)
//       bounds vs the static low=3/high=20, on the SPEC mix.
//   (2) Page migration — a memory-intensive app whose data starts entirely
//       on the wrong node, with and without a periodic PageMigrator pass
//       pulling chunks toward the accessing node.
#include "bench_common.hpp"

#include "numa/page_migration.hpp"
#include "workload/spec.hpp"

using namespace vprobe;

namespace {

/// Extension (2): solo app on node 1 with all data on node 0, as a custom
/// RunPlan job (runtime packed into avg_runtime_s).
stats::RunMetrics misplaced_run(const runner::RunConfig& cfg,
                                bool migrate_pages) {
  auto hv = runner::make_hypervisor(runner::SchedKind::kCredit, cfg.seed);
  constexpr std::int64_t kGB = 1024ll * 1024 * 1024;
  // Memory pinned to node 0, VCPU booted on node 1; nothing else runs, so
  // Credit never moves the VCPU — every access stays remote unless the
  // pages follow.
  hv::Domain& dom = hv->create_domain("VM1", 4 * kGB, 1,
                                      numa::PlacementPolicy::kOnNode, 0);
  hv->migrate_to_node(dom.vcpu(0), 1);
  wl::SpecApp app(*hv, dom, dom.vcpu(0), "milc", cfg.instr_scale);

  sim::EventHandle timer;
  if (migrate_pages) {
    timer = hv->engine().schedule_periodic(sim::Time::ms(100), [&] {
      const numa::NodeId node = hv->topology().node_of(dom.vcpu(0).pcpu);
      const numa::Region region{0, dom.memory().allocated_chunks()};
      const auto result = numa::PageMigrator::rebalance(dom.memory(), region, node);
      // Migration is not free: charge its cost to the running PCPU.
      if (result.chunks_moved > 0) {
        hv->charge_overhead(hv::OverheadBucket::kBalancing, result.cost,
                            &hv->pcpu(dom.vcpu(0).pcpu));
      }
    });
  }

  hv->start();
  app.start();
  stats::RunMetrics m;
  m.workload = migrate_pages ? "misplaced+migration" : "misplaced";
  m.completed = runner::run_until(*hv, [&] { return app.finished(); },
                                  sim::Time::sec(3600));
  timer.cancel();
  m.app_runtime_s["milc"] = app.runtime().to_seconds();
  m.finalize();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "Ablation: Section VI extensions (dynamic bounds, page"
               " migration)"))
    return 0;
  const runner::BenchFlags flags = runner::parse_bench_flags(cli);
  bench::print_header(
      "Ablation: Section VI extensions (dynamic bounds, page migration)",
      flags);

  // All four jobs in one plan: two spec-mix variants, two misplaced runs.
  runner::RunPlan plan;
  for (bool dynamic : {false, true}) {
    runner::RunConfig cfg = flags.config;
    cfg.sched = runner::SchedKind::kVprobe;
    cfg.dynamic_bounds = dynamic;
    runner::RunSpec spec = runner::RunSpec::spec(cfg, "mix");
    spec.label += dynamic ? "+dynamic-bounds" : "+static-bounds";
    plan.add(std::move(spec));
  }
  for (bool migrate : {false, true}) {
    // The stranded-VCPU setup is deterministic (single pinned VCPU): one
    // seed per variant, like the original hand-rolled loop.
    runner::RunConfig cfg = flags.config;
    cfg.repeats = 1;
    plan.add(runner::RunSpec{
        cfg, migrate ? "misplaced+migration" : "misplaced",
        [migrate](const runner::RunConfig& c) {
          return misplaced_run(c, migrate);
        }});
  }
  const auto runs = bench::execute_plan(plan, flags);

  // ---------------------------------------------- (1) dynamic bounds ----
  std::printf("(1) Dynamic Equation-(3) bounds on the SPEC mix\n");
  {
    stats::Table table({"variant", "mix avg runtime (s)", "remote ratio (%)"});
    for (std::size_t i = 0; i < 2; ++i) {
      const stats::RunMetrics& m = runs[i];
      table.add_row({i == 1 ? "vProbe + dynamic bounds" : "vProbe (static 3/20)",
                     stats::fmt(m.avg_runtime_s, "%.3f"),
                     stats::fmt(m.remote_access_ratio() * 100.0, "%.1f")});
    }
    table.print();
  }

  // ---------------------------------------------- (2) page migration ----
  std::printf("\n(2) Page migration for a VCPU stranded away from its data\n");
  {
    const double without = runs[2].avg_runtime_s;
    const double with = runs[3].avg_runtime_s;
    stats::Table table({"variant", "milc runtime (s)"});
    table.add_row({"VCPU scheduling only (all accesses remote)",
                   stats::fmt(without, "%.3f")});
    table.add_row({"+ periodic page migration", stats::fmt(with, "%.3f")});
    table.print();
    std::printf("Improvement: %.1f%% — the paper argues page migration is the"
                " complementary knob to VCPU scheduling.\n",
                (1.0 - with / without) * 100.0);
  }
  bench::maybe_dump_json(flags, runs);
  return 0;
}
