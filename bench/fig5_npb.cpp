// Figure 5: NPB workloads (bt, cg, lu, mg, sp — 4 threads each) under the
// five schedulers; the same three normalized panels as Figure 4.
#include "bench_common.hpp"

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(cli, "Figure 5: NPB under five VCPU schedulers"))
    return 0;
  const runner::BenchFlags flags = runner::parse_bench_flags(cli);
  bench::print_header("Figure 5: NPB under five VCPU schedulers", flags);

  const std::vector<std::string> workloads = {"bt", "cg", "lu", "mg", "sp"};
  const auto scheds = runner::sweep_schedulers(flags);

  runner::RunPlan plan;
  for (const auto& app : workloads) {
    plan.add_sweep(scheds, runner::RunSpec::npb(flags.config, app));
  }
  const auto all_runs = bench::execute_plan(plan, flags);

  stats::Table time_panel(bench::sched_headers("workload", scheds));
  stats::Table total_panel(bench::sched_headers("workload", scheds));
  stats::Table remote_panel(bench::sched_headers("workload", scheds));

  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const auto runs = bench::grid_row(all_runs, w, scheds.size());
    time_panel.add_row(workloads[w], bench::normalized_row(runs, runner::metric_avg_runtime));
    total_panel.add_row(workloads[w], bench::normalized_row(runs, runner::metric_total_accesses));
    remote_panel.add_row(workloads[w], bench::normalized_row(runs, runner::metric_remote_accesses));
  }

  std::printf("(a) Normalized execution time (lower is better)\n");
  time_panel.print();
  std::printf("\n(b) Normalized total memory accesses\n");
  total_panel.print();
  std::printf("\n(c) Normalized remote memory accesses\n");
  remote_panel.print();
  std::printf(
      "\nPaper reference: best case sp — vProbe beats Credit/VCPU-P/LB by"
      " 45.2%%/15.7%%/9.6%%; LB raises total accesses for bt/lu/sp;\nBRM worst"
      " due to lock contention.\n");
  bench::maybe_dump_json(flags, all_runs);
  return 0;
}
