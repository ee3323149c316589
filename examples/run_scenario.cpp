// Run a scenario file: the no-C++ path for building your own experiments.
//
//   $ ./run_scenario examples/scenarios/paper_soplex.scn
//   $ ./run_scenario my.scn --json
//   $ ./run_scenario my.scn --repeats 5 --jobs 5   # averaged over 5 seeds
//
// With no argument, runs a built-in demo scenario and prints the file
// format, so the example is self-documenting.
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>

#include "runner/cli.hpp"
#include "runner/run_plan.hpp"
#include "runner/scenario_file.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"

using namespace vprobe;

namespace {

constexpr const char* kDemoScenario = R"(# Demo: the paper's soplex setup under vProbe
machine xeon_e5620
scheduler vprobe
seed 1
scale 0.15
horizon 600
sampling 1.0

vm name=VM1 mem=15G vcpus=8 policy=fill_first alternate=1
vm name=VM2 mem=5G  vcpus=8 policy=fill_first alternate=1 preferred=1
vm name=VM3 mem=1G  vcpus=8 preferred=1

app vm=VM1 kind=spec profile=soplex count=4 measure=1
app vm=VM1 kind=ticks from=4
app vm=VM2 kind=spec profile=soplex count=4
app vm=VM2 kind=ticks from=4
app vm=VM3 kind=hungry
)";

}  // namespace

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({"repeats", "jobs", "json", "hosts-csv", "sim-threads",
                     "no-window-batch", "no-lazy-arrivals", "rps", "slo-ms"});
  if (runner::maybe_print_help(
          cli, "Run a scenario file (built-in demo when no file is given)",
          "  <file.scn>       positional: scenario file to run\n"
          "  --repeats N      average over N seeds (default 1; seeds from"
          " the scenario's base seed)\n"
          "  --jobs N         run the repeats on N threads (bit-identical to\n"
          "                   --jobs 1)\n"
          "  --json           print the metrics as one JSON object instead of\n"
          "                   tables\n"
          "  --hosts-csv F    cluster scenarios: per-host metrics to F\n"
          "  --sim-threads N  cluster scenarios: engine shards (PDES);\n"
          "                   bit-identical to --sim-threads 1\n"
          "  --no-window-batch  sharded cluster scenarios: disable batched\n"
          "                   windows (bit-identical either way)\n"
          "  --no-lazy-arrivals  openloop scenarios: one engine event per\n"
          "                   arrival instead of pre-drawn lazy blocks\n"
          "                   (bit-identical either way)\n"
          "  --rps R          override the openloop base arrival rate\n"
          "                   (scenario must declare kind=kv apps)\n"
          "  --slo-ms M       override the request-latency SLO threshold"))
    return 0;

  std::string text;
  if (cli.positional().empty()) {
    std::printf("No scenario file given — running the built-in demo:\n\n%s\n",
                kDemoScenario);
    text = kDemoScenario;
  } else {
    std::ifstream in(cli.positional().front());
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", cli.positional().front().c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }

  runner::ScenarioSpec spec;
  try {
    spec = runner::parse_scenario(text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }

  // Serving overrides: --rps enables/overrides the open-loop client (the
  // scenario must declare kv servers for it to target), --slo-ms the SLO.
  if (cli.has("rps")) {
    spec.openloop_enabled = true;
    spec.openloop.rps = cli.get_double("rps", spec.openloop.rps);
  }
  if (cli.has("slo-ms")) {
    spec.slo_ms = cli.get_double("slo-ms", spec.slo_ms);
  }
  // Bit-identical engine choices: PDES shards, batched windows, lazy
  // open-loop arrival delivery.
  spec.sim_threads = cli.get_int("sim-threads", 1);
  spec.window_batch = !cli.has("no-window-batch");
  spec.lazy_arrivals = !cli.has("no-lazy-arrivals");

  // One job: the executor expands --repeats into per-seed runs
  // (offsetting the scenario's base seed) and averages the results.
  runner::RunConfig cfg;
  cfg.seed = spec.seed;
  cfg.repeats = cli.get_int("repeats", 1);
  runner::RunPlan plan;
  plan.add(runner::RunSpec{
      cfg, "scenario", [&spec](const runner::RunConfig& c) {
        runner::ScenarioSpec seeded = spec;
        seeded.seed = c.seed;
        return runner::run_scenario(seeded);
      }});
  runner::ExecutorOptions opts;
  opts.jobs = cli.get_int("jobs", 1);
  opts.progress = opts.jobs != 1;
  stats::RunMetrics m;
  try {
    m = runner::execute_plan(plan, opts).front();
  } catch (const std::exception& e) {
    // Run-time scenario errors (a VM that does not fit, nothing to
    // measure, ...) are the user's input too: report them like parse errors.
    std::fprintf(stderr, "run error: %s\n", e.what());
    return 1;
  }

  if (cli.has("hosts-csv")) {
    stats::write_host_csv(cli.get("hosts-csv", "hosts.csv"), m);
  }

  if (cli.has("json")) {
    std::printf("%s\n", stats::to_json(m).c_str());
    return m.completed ? 0 : 2;
  }

  std::printf("scheduler %s, simulated %.2f s, %s\n\n", m.scheduler.c_str(),
              m.sim_seconds, m.completed ? "completed" : "HIT HORIZON");
  stats::Table table({"measured app", "runtime (s)"});
  for (const auto& [name, t] : m.app_runtime_s) {
    table.add_row({name, stats::fmt(t, "%.3f")});
  }
  table.print();
  std::printf(
      "\navg runtime %.3f s | remote ratio %.1f%% | %llu cross-node"
      " migrations | overhead %.5f%%\n",
      m.avg_runtime_s, m.remote_access_ratio() * 100.0,
      static_cast<unsigned long long>(m.cross_node_migrations),
      m.overhead_fraction * 100.0);

  if (!m.latency.empty()) {
    std::printf(
        "serving: %llu requests @ %.0f rps | p50 %.3f ms, p99 %.3f ms,"
        " p999 %.3f ms, max %.3f ms",
        static_cast<unsigned long long>(m.latency.count()), m.throughput_rps,
        m.latency_p50_s() * 1e3, m.latency_p99_s() * 1e3,
        m.latency_p999_s() * 1e3, m.latency_max_s() * 1e3);
    if (m.slo_threshold_s > 0) {
      std::printf(" | SLO %.1f ms: %llu violations (%.3f%%)",
                  m.slo_threshold_s * 1e3,
                  static_cast<unsigned long long>(m.slo_violations),
                  m.slo_violation_fraction() * 100.0);
    }
    std::printf("\n");
  }

  if (m.is_cluster_run()) {
    std::printf("\n");
    stats::Table hosts({"host", "machine", "domains", "vcpus", "busy (s)",
                        "migrations", "trace digest"});
    for (const auto& h : m.hosts) {
      hosts.add_row({h.name, h.machine, std::to_string(h.domains),
                     std::to_string(h.vcpus), stats::fmt(h.busy_s, "%.3f"),
                     std::to_string(h.migrations),
                     stats::hex_digest(h.trace_digest)});
    }
    hosts.print();
    std::printf(
        "\ncluster: %llu admitted, %llu rejected | migrations %llu started,"
        " %llu completed (%llu pre-copy rounds, %.1f MiB moved) | %llu"
        " balance actions | fleet digest %s\n",
        static_cast<unsigned long long>(m.cluster.admitted),
        static_cast<unsigned long long>(m.cluster.rejected),
        static_cast<unsigned long long>(m.cluster.migrations_started),
        static_cast<unsigned long long>(m.cluster.migrations_completed),
        static_cast<unsigned long long>(m.cluster.precopy_rounds),
        m.cluster.migrated_bytes / (1024.0 * 1024.0),
        static_cast<unsigned long long>(m.cluster.balance_actions),
        stats::hex_digest(m.cluster.fleet_digest).c_str());
  }
  return m.completed ? 0 : 2;
}
