// Figure 4: SPEC CPU2006 workloads (soplex, libquantum, mcf, milc, mix)
// under the five schedulers — three panels: (a) normalized execution time,
// (b) normalized total memory accesses, (c) normalized remote accesses.
// Everything is normalized to the Credit scheduler.
#include "bench_common.hpp"

#include <algorithm>

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({"check"}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "Figure 4: SPEC CPU2006 under five VCPU schedulers",
          "  --check          verify the paper's qualitative claims (exit 1 on"
          " failure)"))
    return 0;
  const runner::BenchFlags flags = runner::parse_bench_flags(cli);
  bench::print_header("Figure 4: SPEC CPU2006 under five VCPU schedulers",
                      flags);

  const std::vector<std::string> workloads = {"soplex", "libquantum", "mcf",
                                              "milc", "mix"};
  const auto scheds = runner::sweep_schedulers(flags);

  runner::RunPlan plan;
  for (const auto& app : workloads) {
    plan.add_sweep(scheds, runner::RunSpec::spec(flags.config, app));
  }
  const auto all_runs = bench::execute_plan(plan, flags);

  stats::Table time_panel(bench::sched_headers("workload", scheds));
  stats::Table total_panel(bench::sched_headers("workload", scheds));
  stats::Table remote_panel(bench::sched_headers("workload", scheds));
  std::vector<std::pair<std::string, std::vector<double>>> time_rows;
  std::vector<std::pair<std::string, std::vector<double>>> remote_rows;

  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const std::string& app = workloads[w];
    const auto runs = bench::grid_row(all_runs, w, scheds.size());
    // The mix workload normalizes per app before averaging (Section V-B1).
    std::vector<double> times;
    if (app == "mix") {
      for (const auto& r : runs) {
        times.push_back(runner::mix_normalized_runtime(r, runs.front()));
      }
    } else {
      times = bench::normalized_row(runs, runner::metric_avg_runtime);
    }
    time_panel.add_row(app, times);
    total_panel.add_row(app, bench::normalized_row(runs, runner::metric_total_accesses));
    const auto remote = bench::normalized_row(runs, runner::metric_remote_accesses);
    remote_panel.add_row(app, remote);
    time_rows.emplace_back(app, times);
    remote_rows.emplace_back(app, remote);
  }

  std::printf("(a) Normalized execution time (lower is better)\n");
  time_panel.print();
  std::printf("\n(b) Normalized total memory accesses\n");
  total_panel.print();
  std::printf("\n(c) Normalized remote memory accesses\n");
  remote_panel.print();
  std::printf(
      "\nPaper reference: vProbe best everywhere; soplex headline gaps vs"
      " Credit/VCPU-P/LB = 32.5%%/16.6%%/10.2%%;\nLB slightly increases total"
      " accesses for soplex and mcf; BRM ~ Credit due to lock contention.\n");
  bench::maybe_dump_json(flags, all_runs);

  // --check: self-verify the paper's qualitative claims (shape regression).
  // Column order: Credit, vProbe, VCPU-P, LB, BRM.
  if (cli.has("check")) {
    if (scheds.size() != runner::paper_schedulers().size()) {
      std::fprintf(stderr, "--check needs the full scheduler sweep (no --sched)\n");
      return 1;
    }
    int failures = 0;
    auto expect = [&](bool ok, const std::string& what) {
      if (!ok) {
        ++failures;
        std::fprintf(stderr, "SHAPE FAIL: %s\n", what.c_str());
      }
    };
    for (const auto& [app, t] : time_rows) {
      expect(t[1] == *std::min_element(t.begin(), t.end()),
             "vProbe fastest on " + app);
      expect(t[1] < 0.92, "vProbe gains >8% on " + app);
      expect(t[4] > 0.85, "BRM ~ Credit (not clearly better) on " + app);
    }
    for (const auto& [app, r] : remote_rows) {
      expect(r[1] < 0.8, "vProbe cuts remote accesses on " + app);
    }
    std::printf("shape check: %s\n", failures == 0 ? "PASS" : "FAIL");
    return failures == 0 ? 0 : 1;
  }
  return 0;
}
