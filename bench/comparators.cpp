// Extended comparator sweep (beyond the paper's Figure 4 legend): the five
// paper schedulers plus the AutoNUMA-style related-work comparator, across
// the SPEC workloads.  The interesting contrast: AutoNUMA is
// memory-locality-greedy with no contention balancing — the paper's core
// argument for why PMU-driven partitioning is needed — so it should cut
// remote accesses hard but give part of the win back to LLC pile-ups.
#include "bench_common.hpp"

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "Comparators: the paper's five schedulers + AutoNUMA-style"
               " balancing"))
    return 0;
  const runner::BenchFlags flags = runner::parse_bench_flags(cli);
  bench::print_header(
      "Comparators: the paper's five schedulers + AutoNUMA-style balancing",
      flags);

  // This sweep covers the extended scheduler list (AutoNUMA included),
  // unless --sched restricts it.
  const std::vector<runner::SchedKind> scheds =
      flags.sched ? std::vector<runner::SchedKind>{*flags.sched}
                  : std::vector<runner::SchedKind>(
                        runner::all_schedulers().begin(),
                        runner::all_schedulers().end());
  const std::vector<std::string> workloads = {"soplex", "milc", "mix"};

  runner::RunPlan plan;
  for (const auto& app : workloads) {
    plan.add_sweep(scheds, runner::RunSpec::spec(flags.config, app));
  }
  const auto all_runs = bench::execute_plan(plan, flags);

  stats::Table time_panel(bench::sched_headers("workload", scheds));
  stats::Table remote_panel(bench::sched_headers("workload", scheds));
  stats::Table llc_panel(bench::sched_headers("workload", scheds));

  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const auto runs = bench::grid_row(all_runs, w, scheds.size());
    std::vector<double> times;
    if (workloads[w] == "mix") {
      for (const auto& r : runs) {
        times.push_back(runner::mix_normalized_runtime(r, runs.front()));
      }
    } else {
      times = bench::normalized_row(runs, runner::metric_avg_runtime);
    }
    time_panel.add_row(workloads[w], times);
    remote_panel.add_row(workloads[w], bench::normalized_row(runs, runner::metric_remote_accesses));
    llc_panel.add_row(workloads[w], bench::normalized_row(runs, runner::metric_total_accesses));
  }

  std::printf("(a) Normalized execution time (lower is better)\n");
  time_panel.print();
  std::printf("\n(b) Normalized remote memory accesses\n");
  remote_panel.print();
  std::printf("\n(c) Normalized total memory accesses (LLC pile-up indicator)\n");
  llc_panel.print();
  std::printf(
      "\nExpectation: AutoNUMA lands between Credit and vProbe — strong"
      " remote-access reduction, but greedy task placement piles\nLLC demand"
      " onto popular nodes, which vProbe's even partitioning avoids.\n");
  bench::maybe_dump_json(flags, all_runs);
  return 0;
}
