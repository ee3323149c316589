// Tail-latency serving bench: all 6 schedulers against the spike_fleet
// regime (4 hosts x 4-worker KV VMs, open-loop Poisson arrivals with a 4x
// mid-run spike, batch-VM churn throughout; see
// examples/scenarios/spike_fleet.scn and docs/SERVING.md).
//
// The point this bench records: open-loop throughput is pinned to the
// arrival rate, so every scheduler posts the same requests/sec — a
// closed-loop comparison would call them equal.  The latency columns are
// where they separate: p999 and SLO-violation counts differ by orders of
// magnitude, because an open-loop spike exposes queueing collapse that a
// self-clocking client hides by slowing its own offered load.
//
// --smoke gates (exit nonzero on violation):
//   * pre-spike prefix (horizon = spike_at): requests flowed and SLO
//     violations are exactly zero — the base rate is genuinely calm;
//   * full run: SLO violations are nonzero — the spike genuinely collapses
//     the fleet;
//   * --sim-threads 4 reproduces the serial run bit for bit: fleet digest,
//     per-host trace digests, the full latency histogram, and the
//     violation count;
//   * a short 1M-rps saturating window where lazy arrival delivery
//     (docs/SERVING.md) must match --no-lazy-arrivals bit for bit while
//     paying >=5x fewer engine events per request.
//
// --rps N [--horizon H] benches the arrival hot path alone: the regime at a
// saturating rate, lazy vs eager, reporting events/request and wall clock.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "runner/cli.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_file.hpp"
#include "stats/metrics.hpp"
#include "stats/table.hpp"

namespace {

using namespace vprobe;  // NOLINT

// The spike_fleet regime, embedded so the binary runs from any directory.
// Keep in lockstep with examples/scenarios/spike_fleet.scn (the scheduler
// line is overridden per run below).
constexpr const char* kSpikeFleet = R"(
machines xeon_e5620*4
scheduler vprobe
seed 7
horizon 1.0
sampling 0.25

vm name=kv0 mem=4G vcpus=4 host=0
vm name=kv1 mem=4G vcpus=4 host=1
vm name=kv2 mem=4G vcpus=4 host=2
vm name=kv3 mem=4G vcpus=4 host=3

app vm=kv0 kind=kv threads=4 instr=150k batch=32
app vm=kv1 kind=kv threads=4 instr=150k batch=32
app vm=kv2 kind=kv threads=4 instr=150k batch=32
app vm=kv3 kind=kv threads=4 instr=150k batch=32

openloop rps=30000 start=0.05 spike_at=0.4 spike_until=0.7 spike_x=4
slo ms=2
churn start=0.1 interarrival=0.08 lifetime=0.2 max_live=4 vcpus_min=2 vcpus_max=4 mem_min=512M mem_max=2G
)";

struct ServingRow {
  std::string scheduler;
  stats::RunMetrics m;
  double wall_ms = 0.0;
};

stats::RunMetrics run_spike(runner::SchedKind sched, int sim_threads,
                            double horizon_override = 0.0,
                            double rps_override = 0.0, bool lazy = true) {
  runner::ScenarioSpec spec = runner::parse_scenario(kSpikeFleet);
  spec.sched = sched;
  spec.sim_threads = sim_threads;
  if (horizon_override > 0.0) spec.horizon_s = horizon_override;
  if (rps_override > 0.0) spec.openloop.rps = rps_override;
  spec.lazy_arrivals = lazy;
  return runner::run_scenario(spec);
}

bool hosts_identical(const stats::RunMetrics& a, const stats::RunMetrics& b) {
  if (a.hosts.size() != b.hosts.size()) return false;
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    if (a.hosts[i].trace_records != b.hosts[i].trace_records ||
        a.hosts[i].trace_digest != b.hosts[i].trace_digest ||
        !(a.hosts[i].latency == b.hosts[i].latency) ||
        a.hosts[i].slo_violations != b.hosts[i].slo_violations) {
      return false;
    }
  }
  return true;
}

int run_smoke() {
  int failures = 0;
  auto gate = [&failures](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };

  std::printf("serving smoke: spike_fleet regime, scheduler vprobe\n");

  // Pre-spike prefix: stop exactly at spike_at.  The base rate must be
  // genuinely calm — zero SLO violations over a real amount of traffic.
  const stats::RunMetrics pre =
      run_spike(runner::SchedKind::kVprobe, 1, 0.4);
  gate(pre.latency.count() > 1000, "pre-spike prefix served >1000 requests");
  gate(pre.slo_violations == 0, "pre-spike SLO violations == 0");

  // Full run: the spike must genuinely collapse the fleet.
  const stats::RunMetrics serial = run_spike(runner::SchedKind::kVprobe, 1);
  gate(serial.slo_violations > 0, "spike produces SLO violations");
  gate(serial.latency_p999_s() > serial.slo_threshold_s,
       "p999 exceeds the SLO threshold under the spike");

  // Sharded run: bit-identical digests, histogram, and violation count.
  const stats::RunMetrics sharded = run_spike(runner::SchedKind::kVprobe, 4);
  gate(sharded.cluster.fleet_digest == serial.cluster.fleet_digest,
       "--sim-threads 4 reproduces the serial fleet digest");
  gate(hosts_identical(serial, sharded),
       "per-host traces + serving stats identical under sharding");
  gate(sharded.latency == serial.latency &&
           sharded.slo_violations == serial.slo_violations,
       "latency histogram + SLO count identical under sharding");

  // Million-RPS gate: a short saturating window (the spike never arrives)
  // where lazy arrival delivery must be bit-identical to the per-arrival
  // event path while paying >=5x fewer engine events per request.
  const stats::RunMetrics lazy_hot =
      run_spike(runner::SchedKind::kVprobe, 1, 0.12, 1e6, true);
  const stats::RunMetrics eager_hot =
      run_spike(runner::SchedKind::kVprobe, 1, 0.12, 1e6, false);
  gate(lazy_hot.cluster.fleet_digest == eager_hot.cluster.fleet_digest,
       "1M-rps: lazy delivery reproduces the eager fleet digest");
  gate(hosts_identical(lazy_hot, eager_hot),
       "1M-rps: per-host traces + serving stats identical lazy vs eager");
  gate(lazy_hot.latency == eager_hot.latency &&
           lazy_hot.slo_violations == eager_hot.slo_violations,
       "1M-rps: latency histogram + SLO count identical lazy vs eager");
  gate(eager_hot.arrivals_coalesced == 0,
       "1M-rps: the eager path coalesces nothing");
  gate(lazy_hot.arrivals_coalesced > 0,
       "1M-rps: lazy delivery coalesces arrivals");
  gate(lazy_hot.arrival_events * 5 <= eager_hot.arrival_events,
       "1M-rps: lazy delivery pays >=5x fewer arrival events");

  std::printf("serving smoke: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

// --rps mode: the arrival hot path in isolation.  Runs the spike_fleet
// regime at the requested (saturating) rate with lazy delivery on and off,
// checks bit-identity, and reports the event-count and wall-clock win.
int run_hot_path(double rps, double horizon) {
  std::printf(
      "arrival hot path: spike_fleet regime @ %.0f rps, horizon %.2f s\n\n",
      rps, horizon);

  struct HotRow {
    const char* label;
    stats::RunMetrics m;
    double wall_ms = 0.0;
  };
  HotRow rows[2] = {{"lazy (default)", {}, 0.0},
                    {"--no-lazy-arrivals", {}, 0.0}};
  for (int i = 0; i < 2; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    rows[i].m =
        run_spike(runner::SchedKind::kVprobe, 1, horizon, rps, i == 0);
    rows[i].wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  }

  stats::Table table({"mode", "requests", "arrival events", "events/req",
                      "coalesced", "wall ms"});
  for (const HotRow& r : rows) {
    const double per_req =
        r.m.latency.count() == 0
            ? 0.0
            : static_cast<double>(r.m.arrival_events) /
                  static_cast<double>(r.m.latency.count());
    table.add_row({r.label, std::to_string(r.m.latency.count()),
                   std::to_string(r.m.arrival_events),
                   stats::fmt(per_req, "%.4f"),
                   std::to_string(r.m.arrivals_coalesced),
                   stats::fmt(r.wall_ms, "%.1f")});
  }
  table.print();

  const bool identical =
      rows[0].m.cluster.fleet_digest == rows[1].m.cluster.fleet_digest &&
      hosts_identical(rows[0].m, rows[1].m) &&
      rows[0].m.latency == rows[1].m.latency &&
      rows[0].m.slo_violations == rows[1].m.slo_violations;
  std::printf("\nbit-identity lazy vs eager: %s\n",
              identical ? "IDENTICAL" : "DIVERGED");
  if (rows[1].m.arrival_events > 0) {
    std::printf("event reduction: %.1fx fewer arrival events, %.2fx wall\n",
                static_cast<double>(rows[1].m.arrival_events) /
                    static_cast<double>(
                        rows[0].m.arrival_events ? rows[0].m.arrival_events
                                                 : 1),
                rows[1].wall_ms / (rows[0].wall_ms > 0 ? rows[0].wall_ms : 1));
  }
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({"smoke", "rps", "horizon"});
  if (runner::maybe_print_help(
          cli, "Tail-latency serving: spike_fleet across all schedulers",
          "  --smoke             gate run: calm prefix, spike violations,\n"
          "                      sharded and lazy-vs-eager bit-identity\n"
          "  --rps R             bench the arrival hot path at R rps,\n"
          "                      lazy vs eager delivery\n"
          "  --horizon S         simulated seconds for --rps (default 0.12)\n")) {
    return 0;
  }
  if (cli.has("smoke")) return run_smoke();
  const double rps = cli.get_double("rps", 0.0);
  if (rps > 0.0) return run_hot_path(rps, cli.get_double("horizon", 0.12));

  std::printf("Tail-latency serving: spike_fleet across all schedulers\n");
  std::printf(
      "(open-loop: throughput is pinned to the arrival rate; the tail is\n"
      " the comparison — see docs/SERVING.md)\n\n");

  std::vector<ServingRow> rows;
  for (const runner::SchedKind sched : runner::all_schedulers()) {
    ServingRow row;
    row.scheduler = runner::to_string(sched);
    const auto t0 = std::chrono::steady_clock::now();
    row.m = run_spike(sched, 1);
    row.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    rows.push_back(std::move(row));
  }

  stats::Table table({"scheduler", "req/s", "p50 ms", "p99 ms", "p999 ms",
                      "max ms", "SLO viol", "viol %", "wall ms"});
  for (const ServingRow& r : rows) {
    table.add_row({r.scheduler, stats::fmt(r.m.throughput_rps, "%.0f"),
                   stats::fmt(r.m.latency_p50_s() * 1e3, "%.3f"),
                   stats::fmt(r.m.latency_p99_s() * 1e3, "%.3f"),
                   stats::fmt(r.m.latency_p999_s() * 1e3, "%.3f"),
                   stats::fmt(r.m.latency_max_s() * 1e3, "%.3f"),
                   std::to_string(r.m.slo_violations),
                   stats::fmt(r.m.slo_violation_fraction() * 100.0, "%.3f"),
                   stats::fmt(r.wall_ms, "%.1f")});
  }
  table.print();
  std::printf(
      "\nSLO threshold 2 ms; spike 30k -> 120k rps over [0.4 s, 0.7 s).\n"
      "Identical req/s by construction — rank schedulers by the tail.\n");
  return 0;
}
