// Figure 7: Redis GET workload sweeping parallel connections from 2,000 to
// 10,000 — (a) average throughput (requests/s), (b)/(c) normalized
// total/remote memory accesses, per scheduler.
#include "bench_common.hpp"

#include <algorithm>

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({"requests", "check"}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "Figure 7: Redis vs parallel connections",
          "  --requests N     total redis requests per run (default 150000)\n"
          "  --check          verify Figure 7a's qualitative claims"))
    return 0;
  const runner::BenchFlags flags = runner::parse_bench_flags(cli);
  const auto total_requests =
      static_cast<std::uint64_t>(cli.get_u64("requests", 150'000));
  bench::print_header("Figure 7: Redis vs parallel connections", flags);

  const auto scheds = runner::sweep_schedulers(flags);
  std::vector<int> sweep_points;
  runner::RunPlan plan;
  for (int connections = 2000; connections <= 10000; connections += 2000) {
    sweep_points.push_back(connections);
    plan.add_sweep(scheds, runner::RunSpec::redis(flags.config, connections,
                                                  total_requests));
  }
  const auto all_runs = bench::execute_plan(plan, flags);

  stats::Table tput_panel(bench::sched_headers("connections", scheds));
  stats::Table total_panel(bench::sched_headers("connections", scheds));
  stats::Table remote_panel(bench::sched_headers("connections", scheds));
  std::vector<std::vector<double>> tput_rows;

  for (std::size_t p = 0; p < sweep_points.size(); ++p) {
    const auto runs = bench::grid_row(all_runs, p, scheds.size());
    const std::string label = std::to_string(sweep_points[p]);
    tput_rows.push_back(runner::collect(runs, runner::metric_throughput));
    tput_panel.add_row(label, tput_rows.back());
    total_panel.add_row(label, bench::normalized_row(runs, runner::metric_total_accesses));
    remote_panel.add_row(label, bench::normalized_row(runs, runner::metric_remote_accesses));
  }

  std::printf("(a) Average throughput, requests/s (higher is better)\n");
  tput_panel.print();
  std::printf("\n(b) Normalized total memory accesses\n");
  total_panel.print();
  std::printf("\n(c) Normalized remote memory accesses\n");
  remote_panel.print();
  std::printf(
      "\nPaper reference: peak vProbe gain at 2000 connections (26.0%% vs"
      " Credit); VCPU-P beats LB (LLC contention dominates redis);\nBRM ~"
      " Credit despite fewer remote accesses.\n");
  bench::maybe_dump_json(flags, all_runs);

  // --check: vProbe must deliver the best throughput at every sweep point,
  // and throughput must fall as connections grow (Figure 7a's two claims).
  if (cli.has("check")) {
    if (scheds.size() != runner::paper_schedulers().size()) {
      std::fprintf(stderr, "--check needs the full scheduler sweep (no --sched)\n");
      return 1;
    }
    int failures = 0;
    for (std::size_t i = 0; i < tput_rows.size(); ++i) {
      const auto& row = tput_rows[i];
      if (row[1] != *std::max_element(row.begin(), row.end())) {
        ++failures;
        std::fprintf(stderr, "SHAPE FAIL: vProbe not fastest at point %zu\n", i);
      }
    }
    if (tput_rows.front()[0] <= tput_rows.back()[0]) {
      ++failures;
      std::fprintf(stderr, "SHAPE FAIL: Credit throughput did not fall with connections\n");
    }
    std::printf("shape check: %s\n", failures == 0 ? "PASS" : "FAIL");
    return failures == 0 ? 0 : 1;
  }
  return 0;
}
