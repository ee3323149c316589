// Figure 3: LLC miss rate and LLC references per thousand instructions
// (RPTI) for the six calibration applications, measured solo in a 1-VCPU VM
// with node-local memory — the experiment that derives the Equation (3)
// bounds low=3 and high=20 (Section IV-A).
#include "bench_common.hpp"

#include <algorithm>

#include "core/analyzer.hpp"
#include "workload/profile.hpp"

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "Figure 3: LLC miss rate and RPTI of the calibration"
               " applications"))
    return 0;
  runner::BenchFlags flags = runner::parse_bench_flags(cli, 0.02);
  // The solo calibration is noise-free by construction (one pinned VCPU,
  // nothing else running): a single seed per app, like the paper.
  flags.config.repeats = 1;
  bench::print_header(
      "Figure 3: LLC miss rate and RPTI of the calibration applications",
      flags);

  // Each calibration run is a custom job returning SoloMetrics packed into
  // RunMetrics: runtime in app_runtime_s, RPTI in total_mem_accesses,
  // LLC miss rate in remote_mem_accesses (documented field reuse).
  runner::RunPlan plan;
  std::vector<std::string> apps;
  for (std::string_view app : wl::figure3_apps()) {
    apps.emplace_back(app);
    plan.add(runner::RunSpec{
        flags.config, "solo:" + apps.back(),
        [app = apps.back()](const runner::RunConfig& cfg) {
          const runner::SoloMetrics solo = runner::run_solo(cfg, app);
          stats::RunMetrics m;
          m.workload = "solo:" + app;
          m.app_runtime_s[app] = solo.runtime_s;
          m.finalize();
          m.total_mem_accesses = solo.rpti;
          m.remote_mem_accesses = solo.llc_miss_rate;
          m.completed = true;
          return m;
        }});
  }
  const auto runs = bench::execute_plan(plan, flags);

  stats::Table table({"application", "LLC miss rate (%)", "RPTI", "class"});
  const core::PmuDataAnalyzer analyzer;  // paper bounds: low=3, high=20
  double max_fr = 0.0, min_fi = 1e30, max_fi = 0.0, min_t = 1e30;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const double rpti = runs[i].total_mem_accesses;
    const double miss_rate = runs[i].remote_mem_accesses;
    const auto type = analyzer.classify(rpti);
    table.add_row({apps[i], stats::fmt(miss_rate * 100.0, "%.2f"),
                   stats::fmt(rpti, "%.2f"), hv::to_string(type)});
    switch (type) {
      case hv::VcpuType::kLlcFriendly:
        max_fr = std::max(max_fr, rpti);
        break;
      case hv::VcpuType::kLlcFitting:
        min_fi = std::min(min_fi, rpti);
        max_fi = std::max(max_fi, rpti);
        break;
      case hv::VcpuType::kLlcThrashing:
        min_t = std::min(min_t, rpti);
        break;
    }
  }
  table.print();

  std::printf(
      "\nBound derivation (Section IV-A): any low in (%.2f, %.2f] and high in"
      " (%.2f, %.2f] separates the classes;\nthe paper picks low=3, high=20."
      "\nPaper RPTI: povray 0.48, ep 2.01, lu 15.38, mg 16.33, milc 21.68,"
      " libquantum 22.41.\n",
      max_fr, min_fi, max_fi, min_t);
  bench::maybe_dump_json(flags, runs);
  return 0;
}
