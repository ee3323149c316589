// Table III: the percentage of "overhead time" (PMU data collection +
// periodical partitioning) in total execution time, for 1..4 VMs each
// running two soplex instances on 2 VCPUs, under the full vProbe scheduler.
#include "bench_common.hpp"

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(cli, "Table III: vProbe overhead time"))
    return 0;
  const runner::BenchFlags flags = runner::parse_bench_flags(cli);
  bench::print_header("Table III: vProbe overhead time", flags);

  runner::RunPlan plan;
  for (int vms = 1; vms <= 4; ++vms) {
    plan.add(runner::RunSpec::overhead(flags.config, vms));
  }
  const auto runs = bench::execute_plan(plan, flags);

  stats::Table table({"Number of VMs", "overhead time (%)", "completed"});
  for (int vms = 1; vms <= 4; ++vms) {
    const stats::RunMetrics& m = runs[static_cast<std::size_t>(vms - 1)];
    table.add_row({std::to_string(vms),
                   stats::fmt(m.overhead_fraction * 100.0, "%.5f"),
                   m.completed ? "yes" : "no"});
  }
  table.print();
  std::printf(
      "\nPaper reference: 0.00847%% / 0.01206%% / 0.01619%% / 0.01062%% —"
      " all far below 0.1%%.\n");
  bench::maybe_dump_json(flags, runs);
  return 0;
}
