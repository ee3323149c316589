// Compare all five scheduling approaches (Credit, vProbe, VCPU-P, LB, BRM)
// on one workload of your choice, using the paper's standard three-VM
// scenario.  The five runs go through one RunPlan, so --jobs 5 runs them
// concurrently with identical output.
//
//   $ ./scheduler_comparison soplex            # SPEC app (or "mix")
//   $ ./scheduler_comparison lu --npb          # NPB app, 4 threads
//   $ ./scheduler_comparison mix --scale=0.1 --jobs 5
#include <cstdio>

#include "runner/cli.hpp"
#include "runner/run_plan.hpp"
#include "runner/sweep.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"
#include "workload/profile.hpp"

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({"npb"}, runner::kBenchFlagKeys);
  if (runner::maybe_print_help(
          cli, "Compare the paper's five schedulers on one workload",
          "  <app>            positional: SPEC profile, \"mix\", or (with"
          " --npb) an NPB app\n"
          "  --npb            treat <app> as an NPB workload (4 threads)"))
    return 0;
  const std::string app =
      cli.positional().empty() ? "soplex" : cli.positional().front();
  const bool npb = cli.has("npb");

  if (app != "mix" && !wl::has_profile(app)) {
    std::fprintf(stderr, "unknown application '%s'\n", app.c_str());
    return 1;
  }

  runner::BenchFlags flags = runner::parse_bench_flags(cli, 0.2);

  std::printf("Workload: %s (%s)\n%s\n\n", app.c_str(),
              npb ? "NPB, 4 threads" : "SPEC-style instances",
              numa::MachineConfig::xeon_e5620().summary().c_str());

  const auto scheds = runner::sweep_schedulers(flags);
  runner::RunPlan plan;
  plan.add_sweep(scheds, npb ? runner::RunSpec::npb(flags.config, app)
                             : runner::RunSpec::spec(flags.config, app));

  runner::ExecutorOptions opts;
  opts.jobs = flags.jobs;
  opts.progress = flags.jobs != 1;
  const auto runs = runner::execute_plan(plan, opts);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::printf("  %-7s done in %.2f simulated seconds\n",
                runner::to_string(scheds[i]), runs[i].sim_seconds);
  }

  stats::Table table({"scheduler", "avg runtime (s)", "normalized",
                      "remote ratio (%)", "cross-node migrations"});
  const double base_runtime = runs.front().avg_runtime_s;
  for (const auto& m : runs) {
    table.add_row({m.scheduler, stats::fmt(m.avg_runtime_s, "%.3f"),
                   stats::fmt(stats::normalized(m.avg_runtime_s, base_runtime), "%.3f"),
                   stats::fmt(m.remote_access_ratio() * 100.0, "%.1f"),
                   std::to_string(m.cross_node_migrations)});
  }
  std::printf("\n");
  table.print();

  // --json: machine-readable results, one object per scheduler.
  if (!flags.json_path.empty()) {
    std::printf("\n");
    for (const auto& m : runs) std::printf("%s\n", stats::to_json(m).c_str());
  }
  return 0;
}
