// PDES scaling: wall-clock cost of the sharded per-host engine
// (--sim-threads) against the serial shared-engine reference, with the
// digest-identity contract asserted on every row — the speedup is only
// worth reporting if the answer never changes.
//
// Strong scaling: a fixed 8-host fleet (2 VMs/host + churn + balancer + one
// scripted live migration) swept over thread counts; every row must produce
// the serial run's fleet digest bit for bit.  A final "4-nobatch" row runs
// 4 threads with --no-window-batch semantics, pinning the batched and
// unbatched synchronizer loops to the same stream.
//
// Weak scaling: hosts == threads, so per-thread work stays constant while
// the synchronizer's coupling traffic grows with the fleet.  Each row also
// runs the same fleet serially (threads = 1: the shared-engine cost per
// host, no synchronizer) next to the sharded run.  Columns include
// us/record (the normalized cost) and batched windows' coalescing
// counters; the sharded digest must match the serial one.
//
// Every sharded row prints its equal-time control/host ties as
// "touched/all" (cluster::SyncStats), and a row whose digest diverged names
// its first touched tie: the likely first divergent record (docs/PDES.md).
//
// --smoke gates (exit nonzero on violation):
//   * serial (threads=1) and sharded (threads=4) runs of the 8-host fleet
//     produce bit-identical fleet digests and record counts;
//   * the batch-off (unbatched-window) run reproduces the same digest;
//   * no equal-time control/host tie on that fleet is touched (its control
//     events record nothing on the tied host), in either window loop;
//   * zero FleetCheck invariant violations on every shard;
//   * the scripted live migration completes under the synchronizer after
//     at least one pre-copy round;
//   * the control plane admitted more VMs than the 2 per host it started
//     with, so churn arrivals actually got in;
//   * a control-heavy fleet (2 ms churn + 50 ms balancer, the
//     clustered_control regime) actually coalesces: windows_coalesced > 0
//     and barriers < control events — batched windows demonstrably pay
//     fewer shard passes than the control plane fires events;
//   * the serial 8-host fleet runs at most kMaxEventsPerRecord engine
//     events per trace record: a wake-up tickle is one engine event however
//     many idle peers it pokes, so a return to one event per poked peer
//     fails here on a pure counter, with no timing involved.
//
// NOTE: real speedup needs real cores.  On a 1-hardware-thread builder the
// sharded rows measure synchronizer overhead, not parallelism — the digest
// identity is the contract CI enforces; the speedup column is reported for
// machines that have the cores (see BENCH_pdes.json).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "cluster/fleet_check.hpp"
#include "runner/churn.hpp"
#include "runner/fleet.hpp"
#include "trace/digest.hpp"

namespace {

using namespace vprobe;  // NOLINT

struct PdesResult {
  int hosts = 0;
  int threads = 0;
  double wall_ms = 0.0;
  std::uint64_t records = 0;
  /// Engine::executed() over the control and (when sharded) host engines.
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t precopy_rounds = 0;
  std::uint64_t admitted = 0;
  std::uint64_t violations = 0;
  cluster::SyncStats sync;

  double us_per_record() const {
    return records > 0 ? 1000.0 * wall_ms / static_cast<double>(records) : 0.0;
  }
  double events_per_record() const {
    return records > 0 ? static_cast<double>(events) / static_cast<double>(records)
                       : 0.0;
  }
};

struct FleetOptions {
  bool window_batch = true;
  /// Clustered-control regime: churn interarrivals well under the 10 ms
  /// host tick grids plus a tight balancer, so control events outnumber
  /// host events and batched windows coalesce (see docs/PDES.md).
  bool control_heavy = false;
};

PdesResult run_fleet(int num_hosts, int sim_threads, std::uint64_t seed,
                     sim::Time horizon, FleetOptions opts = {}) {
  cluster::Config ccfg;
  ccfg.seed = seed;
  ccfg.sim_threads = sim_threads;
  ccfg.window_batch = opts.window_batch;
  ccfg.balance_period =
      opts.control_heavy ? sim::Time::ms(50) : sim::Time::ms(300);
  ccfg.balance_threshold = 0.2;

  // Heterogeneous fleet: alternate the paper's Xeon with the 4-node box.
  std::vector<cluster::HostSpec> hosts(static_cast<std::size_t>(num_hosts));
  for (int id = 1; id < num_hosts; id += 2) {
    hosts[static_cast<std::size_t>(id)].machine =
        numa::MachineConfig::four_node_server();
  }
  cluster::Cluster fleet(ccfg, hosts,
                         runner::scheduler_factory(runner::SchedKind::kCredit));
  cluster::FleetCheck check(fleet);

  constexpr std::int64_t kMiB = 1024ll * 1024;
  int mover = -1;
  for (int id = 0; id < num_hosts; ++id) {
    cluster::VmSpec burner;
    burner.name = "burner" + std::to_string(id);
    burner.mem_bytes = 512 * kMiB;
    burner.vcpus = 2;
    burner.host = id;
    burner.workload = runner::hungry_workload();
    burner.dirty_bytes_per_s = runner::hungry_dirty_rate(burner.mem_bytes);
    const int vm = fleet.admit(std::move(burner));
    if (id == 0) mover = vm;

    cluster::VmSpec ticker;
    ticker.name = "ticker" + std::to_string(id);
    ticker.mem_bytes = 256 * kMiB;
    ticker.vcpus = 2;
    ticker.host = id;
    ticker.workload = runner::ticker_workload();
    ticker.dirty_bytes_per_s = runner::ticker_dirty_rate(ticker.mem_bytes);
    fleet.admit(std::move(ticker));
  }
  fleet.start();

  if (num_hosts > 1 && mover >= 0) {
    fleet.engine().schedule_at(sim::Time::ms(50),
                               [&fleet, mover] { fleet.migrate(mover, 1); });
  }

  runner::ChurnOptions copts;
  copts.seed = seed;
  copts.mean_interarrival =
      opts.control_heavy ? sim::Time::ms(2) : sim::Time::ms(30);
  copts.mean_lifetime =
      opts.control_heavy ? sim::Time::ms(8) : sim::Time::ms(80);
  copts.max_live = 2 * num_hosts;
  runner::ChurnDriver churn(fleet, copts);
  churn.start();

  const auto t0 = std::chrono::steady_clock::now();
  runner::run_cluster_until(fleet, nullptr, horizon);
  const auto t1 = std::chrono::steady_clock::now();
  churn.drain();

  PdesResult out;
  out.hosts = num_hosts;
  out.threads = fleet.sim_threads();
  out.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0)
          .count();
  out.events = fleet.engine().executed();
  for (int id = 0; id < num_hosts; ++id) {
    out.records += fleet.tracer(id).total_recorded();
    if (fleet.sharded()) out.events += fleet.host_engine(id).executed();
  }
  out.digest = fleet.fleet_digest();
  out.migrations_completed = fleet.migrations_completed();
  out.precopy_rounds = fleet.precopy_rounds();
  out.admitted = fleet.admitted();
  out.violations = check.total_violations();
  out.sync = fleet.sync_stats();
  return out;
}

/// Equal-time control/host ties of a sharded run as "touched/all": touched
/// ties are those whose control events acted on the tied host.
std::string ties(const cluster::SyncStats& sync) {
  return std::to_string(sync.touched_ties) + "/" +
         std::to_string(sync.equal_time_ties);
}

/// The first touched tie of a sharded run, the usual suspect when its digest
/// diverges (docs/PDES.md, fact 2).
std::string first_tie(const cluster::SyncStats& sync) {
  if (sync.first_tie_host < 0) return "(no touched tie)";
  return "(first touched tie: host " + std::to_string(sync.first_tie_host) +
         " at " + std::to_string(sync.first_tie_at.nanos()) + " ns)";
}

/// Bound for the smoke's events-per-record gate.  At the default seed (7)
/// the serial fleet runs 6.52 events/record with one event per poked PCPU
/// and 2.21 with one event per tickle.
constexpr double kMaxEventsPerRecord = 4.0;

int smoke(std::uint64_t seed) {
  const sim::Time horizon = sim::Time::ms(700);
  const PdesResult serial = run_fleet(8, 1, seed, horizon);
  const PdesResult sharded = run_fleet(8, 4, seed, horizon);
  FleetOptions nobatch;
  nobatch.window_batch = false;
  const PdesResult unbatched = run_fleet(8, 4, seed, horizon, nobatch);
  FleetOptions heavy;
  heavy.control_heavy = true;
  const PdesResult dense = run_fleet(4, 4, seed, sim::Time::ms(400), heavy);
  const PdesResult dense_serial = run_fleet(4, 1, seed, sim::Time::ms(400), heavy);
  int failures = 0;
  auto gate = [&failures](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };
  gate(serial.records > 0, "fleet produced trace events");
  gate(sharded.threads == 4, "sharded run actually used 4 worker shards");
  gate(serial.violations == 0 && sharded.violations == 0,
       "zero invariant violations on every shard (FleetCheck)");
  gate(sharded.migrations_completed >= 1,
       "scripted live migration completed under the synchronizer");
  gate(sharded.precopy_rounds >= 1, "migration ran pre-copy rounds");
  gate(serial.admitted > 2 * static_cast<std::uint64_t>(serial.hosts),
       "control plane admitted churn VMs beyond the resident fleet");
  gate(sharded.digest == serial.digest && sharded.records == serial.records,
       "--sim-threads 4 is bit-identical to --sim-threads 1 (fleet digest)");
  gate(unbatched.digest == serial.digest && unbatched.records == serial.records,
       "--no-window-batch is bit-identical too (batch on == batch off)");
  gate(sharded.sync.touched_ties == 0 && unbatched.sync.touched_ties == 0,
       "no equal-time control/host tie acts on its host (docs/PDES.md)");
  gate(dense.digest == dense_serial.digest &&
           dense.records == dense_serial.records,
       "control-heavy fleet: sharded digest matches serial");
  gate(dense.sync.windows_coalesced > 0,
       "control-heavy fleet coalesces control bursts (windows_coalesced > 0)");
  gate(dense.sync.barriers < dense.sync.control_events,
       "control-heavy fleet pays fewer barriers than control events");
  gate(serial.events_per_record() <= kMaxEventsPerRecord,
       "one engine event per wake-up tickle (events/record under the bound)");
  std::printf("  serial fleet: %llu engine events for %llu records (%.2f/record),"
              " %llu VMs admitted\n",
              static_cast<unsigned long long>(serial.events),
              static_cast<unsigned long long>(serial.records),
              serial.events_per_record(),
              static_cast<unsigned long long>(serial.admitted));
  std::printf("smoke: %s (digest %s, %llu records, serial %.1f ms,"
              " sharded %.1f ms; dense fleet: %llu/%llu windows coalesced,"
              " %llu barriers for %llu control events)\n",
              failures == 0 ? "PASS" : "FAIL",
              trace::digest_hex(serial.digest).c_str(),
              static_cast<unsigned long long>(serial.records), serial.wall_ms,
              sharded.wall_ms,
              static_cast<unsigned long long>(dense.sync.windows_coalesced),
              static_cast<unsigned long long>(dense.sync.windows),
              static_cast<unsigned long long>(dense.sync.barriers),
              static_cast<unsigned long long>(dense.sync.control_events));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vprobe;  // NOLINT

  runner::Cli cli(argc, argv);
  cli.require_known({"seed", "smoke", "horizon", "max-threads"});
  if (runner::maybe_print_help(
          cli, "PDES scaling: sharded engine wall-clock vs the serial path",
          "  --smoke             8-host gate: digest identity at 4 threads,\n"
          "                      batch-on == batch-off, coalescing proven\n"
          "  --horizon S         simulated seconds per fleet (default 0.7)\n"
          "  --max-threads N     largest shard count swept (default 8)\n"
          "  --seed S            fleet seed (default 7)\n")) {
    return 0;
  }
  const std::uint64_t seed = cli.get_u64("seed", 7);
  if (cli.has("smoke")) return smoke(seed);

  const double horizon_s = cli.get_double("horizon", 0.7);
  const int max_threads = cli.get_int("max-threads", 8);
  const sim::Time horizon = sim::Time::seconds(horizon_s);

  std::printf("==============================================================\n");
  std::printf("PDES strong scaling (8 hosts, 2 VMs/host + churn, sweep threads)\n");
  std::printf("==============================================================\n");
  std::printf("horizon %.2fs simulated, seed %llu\n\n", horizon_s,
              static_cast<unsigned long long>(seed));

  const PdesResult base = run_fleet(8, 1, seed, horizon);
  stats::Table strong({"threads", "wall (ms)", "speedup", "records",
                       "coalesced", "barriers", "ties", "digest ok"});
  strong.add_row({"1", stats::fmt(base.wall_ms, "%.1f"), "1.00",
                  std::to_string(base.records), "-", "-", "-", "ref"});
  bool all_identical = true;
  auto strong_row = [&](const char* label, const PdesResult& r) {
    const bool same = r.digest == base.digest && r.records == base.records;
    all_identical = all_identical && same;
    strong.add_row({label, stats::fmt(r.wall_ms, "%.1f"),
                    stats::fmt(r.wall_ms > 0 ? base.wall_ms / r.wall_ms : 0.0,
                               "%.2f"),
                    std::to_string(r.records),
                    std::to_string(r.sync.windows_coalesced),
                    std::to_string(r.sync.barriers),
                    ties(r.sync),
                    same ? "yes" : "NO " + first_tie(r.sync)});
  };
  for (int t = 2; t <= max_threads; t *= 2) {
    strong_row(std::to_string(t).c_str(), run_fleet(8, t, seed, horizon));
  }
  {
    FleetOptions nobatch;
    nobatch.window_batch = false;
    strong_row("4-nobatch", run_fleet(8, 4, seed, horizon, nobatch));
  }
  strong.print();

  std::printf("\n=============================================================\n");
  std::printf("PDES weak scaling (hosts == threads, 2 VMs/host + churn)\n");
  std::printf("=============================================================\n\n");
  stats::Table weak({"hosts=threads", "serial ms", "serial us/rec",
                     "wall (ms)", "records", "us/record", "coalesced",
                     "barriers", "skips", "ties", "digest"});
  for (int n = 1; n <= max_threads; n *= 2) {
    const PdesResult serial = run_fleet(n, 1, seed, horizon);
    const PdesResult r = run_fleet(n, n, seed, horizon);
    const bool same = r.digest == serial.digest && r.records == serial.records;
    all_identical = all_identical && same;
    weak.add_row({std::to_string(n), stats::fmt(serial.wall_ms, "%.1f"),
                  stats::fmt(serial.us_per_record(), "%.2f"),
                  stats::fmt(r.wall_ms, "%.1f"), std::to_string(r.records),
                  stats::fmt(r.us_per_record(), "%.2f"),
                  std::to_string(r.sync.windows_coalesced),
                  std::to_string(r.sync.barriers),
                  std::to_string(r.sync.shard_skips),
                  ties(r.sync),
                  same ? trace::digest_hex(r.digest)
                       : "DIVERGED " + first_tie(r.sync)});
  }
  weak.print();

  if (!all_identical) {
    std::fprintf(stderr, "\nerror: a sharded run diverged from the serial"
                         " digest — see docs/PDES.md\n");
    return 1;
  }
  std::printf("\nevery sharded row reproduced its serial digest (8 hosts: %s)\n",
              trace::digest_hex(base.digest).c_str());
  return 0;
}
