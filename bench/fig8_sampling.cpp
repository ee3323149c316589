// Figure 8: runtime of the SPEC mix workload under vProbe as the sampling
// period sweeps from 0.1 s to 10 s.  The paper finds a U-shape: short
// periods pay partitioning/PMU overhead and migration churn, long periods
// act on stale affinity data; 1 s is the sweet spot.
#include "bench_common.hpp"

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "Figure 8: workload mix runtime vs vProbe sampling period"))
    return 0;
  const runner::BenchFlags flags = runner::parse_bench_flags(cli);
  bench::print_header(
      "Figure 8: workload mix runtime vs vProbe sampling period", flags);

  const std::vector<double> periods_s = {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0};

  // One job per period — same workload, different RunConfig.
  runner::RunPlan plan;
  for (double period : periods_s) {
    runner::RunConfig cfg = flags.config;
    cfg.sched = runner::SchedKind::kVprobe;
    cfg.sampling_period = sim::Time::seconds(period);
    runner::RunSpec spec = runner::RunSpec::spec(cfg, "mix");
    spec.label.append("@").append(stats::fmt(period, "%.1fs"));
    plan.add(std::move(spec));
  }
  const auto runs = bench::execute_plan(plan, flags);

  stats::Table table({"sampling period (s)", "mix runtime (s)",
                      "partition moves", "remote ratio (%)"});
  double best_period = 0.0, best_runtime = 1e300;
  for (std::size_t i = 0; i < periods_s.size(); ++i) {
    const stats::RunMetrics& m = runs[i];
    table.add_row({stats::fmt(periods_s[i], "%.1f"),
                   stats::fmt(m.avg_runtime_s, "%.3f"),
                   stats::fmt(static_cast<double>(m.cross_node_migrations), "%.0f"),
                   stats::fmt(m.remote_access_ratio() * 100.0, "%.1f")});
    if (m.avg_runtime_s < best_runtime) {
      best_runtime = m.avg_runtime_s;
      best_period = periods_s[i];
    }
  }
  table.print();
  std::printf(
      "\nBest measured period: %.1f s."
      "  Paper reference: performance peaks at 1 s (overhead below, staleness"
      " above).\n",
      best_period);
  bench::maybe_dump_json(flags, runs);
  return 0;
}
