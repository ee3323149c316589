// Figure 6: memcached under a memslap-style closed loop, sweeping the
// number of concurrent calls from 16 to 112 — (a) normalized execution
// time, (b)/(c) normalized total/remote memory accesses, per scheduler.
#include "bench_common.hpp"

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({"ops"}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "Figure 6: Memcached vs concurrent calls",
          "  --ops N          total memcached operations per run (default"
          " 150000)"))
    return 0;
  const runner::BenchFlags flags = runner::parse_bench_flags(cli);
  const auto total_ops = static_cast<std::uint64_t>(cli.get_u64("ops", 150'000));
  bench::print_header("Figure 6: Memcached vs concurrent calls", flags);

  const auto scheds = runner::sweep_schedulers(flags);
  std::vector<int> concurrencies;
  runner::RunPlan plan;
  for (int concurrency = 16; concurrency <= 112; concurrency += 16) {
    concurrencies.push_back(concurrency);
    plan.add_sweep(scheds, runner::RunSpec::memcached(flags.config,
                                                      concurrency, total_ops));
  }
  const auto all_runs = bench::execute_plan(plan, flags);

  stats::Table time_panel(bench::sched_headers("concurrency", scheds));
  stats::Table total_panel(bench::sched_headers("concurrency", scheds));
  stats::Table remote_panel(bench::sched_headers("concurrency", scheds));
  stats::Table latency_panel(bench::sched_headers("concurrency", scheds));

  for (std::size_t c = 0; c < concurrencies.size(); ++c) {
    const auto runs = bench::grid_row(all_runs, c, scheds.size());
    const std::string label = std::to_string(concurrencies[c]);
    time_panel.add_row(label, bench::normalized_row(runs, runner::metric_avg_runtime));
    total_panel.add_row(label, bench::normalized_row(runs, runner::metric_total_accesses));
    remote_panel.add_row(label, bench::normalized_row(runs, runner::metric_remote_accesses));
    latency_panel.add_row(label, runner::collect(runs, [](const stats::RunMetrics& m) {
                            return m.latency_p99_s() * 1e3;
                          }));
  }

  std::printf("(a) Normalized execution time (lower is better)\n");
  time_panel.print();
  std::printf("\n(b) Normalized total memory accesses\n");
  total_panel.print();
  std::printf("\n(c) Normalized remote memory accesses\n");
  remote_panel.print();
  std::printf("\n(extra, not in the paper) p99 request latency, ms\n");
  latency_panel.print();
  std::printf(
      "\nPaper reference: peak vProbe gain at 80 calls (31.3%% vs Credit);"
      " LB beats VCPU-P at low concurrency (16/32),\nVCPU-P wins at high"
      " concurrency where LLC contention dominates.\n");
  bench::maybe_dump_json(flags, all_runs);
  return 0;
}
