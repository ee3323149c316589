// Figure 1: the percentage of remote memory accesses under Xen's Credit
// scheduler, for NPB and SPEC CPU2006 memory-intensive applications running
// in the paper's standard three-VM setup.
//
// The paper measures 77-90%+ for all nine applications — the motivation for
// vProbe.  This bench runs exactly the motivating experiment (Credit only)
// and prints the measured remote-access ratio per application.
#include "bench_common.hpp"

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "Figure 1: remote memory access ratio under the Credit"
               " scheduler"))
    return 0;
  runner::BenchFlags flags = runner::parse_bench_flags(cli);
  flags.config.sched = runner::SchedKind::kCredit;
  flags.config.fig1_memory_config = true;  // VM1/VM2 8 GB, VM3 2 GB (Section II-B)
  bench::print_header(
      "Figure 1: remote memory access ratio under the Credit scheduler",
      flags);

  const std::vector<std::pair<const char*, const char*>> apps = {
      {"bt", "NPB"},      {"cg", "NPB"},         {"lu", "NPB"},
      {"mg", "NPB"},      {"sp", "NPB"},         {"soplex", "SPEC"},
      {"libquantum", "SPEC"}, {"mcf", "SPEC"},   {"milc", "SPEC"},
  };

  runner::RunPlan plan;
  for (const auto& [app, suite] : apps) {
    plan.add(suite == std::string("NPB")
                 ? runner::RunSpec::npb(flags.config, app)
                 : runner::RunSpec::spec(flags.config, app));
  }
  const auto runs = bench::execute_plan(plan, flags);

  stats::Table table({"application", "suite", "remote ratio (%)", "remote",
                      "total"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const stats::RunMetrics& m = runs[i];
    table.add_row({apps[i].first, apps[i].second,
                   stats::fmt(m.remote_access_ratio() * 100.0, "%.2f"),
                   stats::fmt(m.remote_mem_accesses, "%.3g"),
                   stats::fmt(m.total_mem_accesses, "%.3g")});
  }
  table.print();
  std::printf(
      "\nPaper reference: all apps above ~77%% (soplex lowest at 77.41%%).\n");
  bench::maybe_dump_json(flags, runs);
  return 0;
}
