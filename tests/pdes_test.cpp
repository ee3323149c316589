// PDES suite: the sharded (per-host engine) cluster path must be
// bit-identical to the serial shared-engine reference for every scheduler,
// seed, fleet size, thread count, and window mode — fleet digest, per-host
// streams, and every rollup metric.  Covers the differential sweep (6
// schedulers x 3 seeds x {2,4}-host fleets with churn + a scripted
// migration under FleetCheck, batch-on vs batch-off vs serial), the
// lookahead window mechanics (run_before/next_event_time/advance_to), the
// synchronizer's idle-shard handoff and counters, the ShardPool wake
// discipline, and the fleet_mix + clustered_control goldens.
//
//   ctest -L pdes
//
// The goldens are re-blessed like the cluster traces (the fleet_mix_pdes
// pin must equal the serial `fleet_mix` entry — the PDES contract IS that
// equality):
//   VPROBE_UPDATE_GOLDEN=1 ctest -L pdes
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/fleet_check.hpp"
#include "cluster/shard_pool.hpp"
#include "runner/churn.hpp"
#include "runner/fleet.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_file.hpp"
#include "sim/engine.hpp"
#include "trace/digest.hpp"

namespace vprobe {
namespace {

constexpr std::int64_t kMiB = 1024ll * 1024;

// -- Engine window primitives --------------------------------------------------

TEST(EngineWindow, RunBeforeStopsAtTheDeadlineEvent) {
  sim::Engine engine;
  std::vector<int> fired;
  engine.schedule_at(sim::Time::ms(10), [&] { fired.push_back(10); });
  engine.schedule_at(sim::Time::ms(20), [&] { fired.push_back(20); });
  engine.schedule_at(sim::Time::ms(30), [&] { fired.push_back(30); });

  // Exclusive deadline: the t=20 event is the coupling point and must NOT
  // fire — it belongs to the synchronizer's next window.
  EXPECT_EQ(engine.run_before(sim::Time::ms(20)), 1u);
  EXPECT_EQ(fired, std::vector<int>({10}));
  EXPECT_EQ(engine.now(), sim::Time::ms(20)) << "clock advances to the window";
  EXPECT_EQ(engine.next_event_time(), sim::Time::ms(20));

  // run_until is inclusive: it drains the rest.
  engine.run_until(sim::Time::ms(30));
  EXPECT_EQ(fired, std::vector<int>({10, 20, 30}));
  EXPECT_EQ(engine.next_event_time(), sim::Time::max()) << "empty queue";
  engine.clear();
}

TEST(EngineWindow, NextEventTimeSkipsCancelledEntries) {
  sim::Engine engine;
  auto h = engine.schedule_at(sim::Time::ms(5), [] {});
  engine.schedule_at(sim::Time::ms(9), [] {});
  h.cancel();
  EXPECT_EQ(engine.next_event_time(), sim::Time::ms(9));
  engine.clear();
}

TEST(EngineWindow, AdvanceToMovesTheClockWithoutFiring) {
  sim::Engine engine;
  bool fired = false;
  engine.schedule_at(sim::Time::ms(10), [&] { fired = true; });
  engine.advance_to(sim::Time::ms(4));
  EXPECT_EQ(engine.now(), sim::Time::ms(4));
  EXPECT_FALSE(fired) << "advance_to never fires events";
  engine.advance_to(sim::Time::ms(2));  // never moves the clock backwards
  EXPECT_EQ(engine.now(), sim::Time::ms(4));
  // A relative schedule after the handoff is anchored at the new clock —
  // this is what control callbacks on skipped shards rely on.
  bool later = false;
  engine.schedule(sim::Time::ms(1), [&] { later = true; });
  engine.run_until(sim::Time::ms(5));
  EXPECT_TRUE(later);
  EXPECT_FALSE(fired);
  engine.clear();
}

// -- ShardPool ----------------------------------------------------------------

TEST(ShardPoolTest, RunsEveryIndexExactlyOnceAndRethrows) {
  cluster::ShardPool pool(4);
  std::vector<int> hits(64, 0);
  pool.parallel_for(64, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);

  // The pool is reusable and propagates worker exceptions to the caller.
  EXPECT_THROW(pool.parallel_for(8,
                                 [](int i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  std::fill(hits.begin(), hits.end(), 0);
  pool.parallel_for(16, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (int i = 0; i < 16; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
}

TEST(ShardPoolTest, SubGroupBatchesWakeAtMostBatchMinusOneWorkers) {
  // An 8-wide pool fed 2-index batches must never notify the whole pool:
  // the caller is one lane, so at most one worker per batch is woken (plus
  // chain notifies, which also only fire when a worker actually claimed an
  // index).  Before the wake cap, every batch notify_all'd 7 workers that
  // found nothing to do.
  cluster::ShardPool pool(8);
  constexpr int kBatches = 200;
  std::vector<int> hits(2, 0);
  for (int b = 0; b < kBatches; ++b) {
    pool.parallel_for(2, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  }
  EXPECT_EQ(hits[0], kBatches);
  EXPECT_EQ(hits[1], kBatches);
  const cluster::ShardPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.batches, static_cast<std::uint64_t>(kBatches));
  // n-1 == 1 direct wake per batch; a chain notify needs a worker claim
  // with an index still unclaimed, impossible at n == 2 (the claim leaves
  // none).  So the hard ceiling is one wakeup per batch.
  EXPECT_LE(stats.wakeups, static_cast<std::uint64_t>(kBatches))
      << "sub-group dispatch must wake at most n-1 workers per batch";
}

// -- Differential fleet runner --------------------------------------------------

struct FleetRun {
  std::uint64_t digest = 0;
  std::uint64_t records = 0;
  std::uint64_t admitted = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t precopy_rounds = 0;
  double migrated_bytes = 0.0;
  std::uint64_t balance_actions = 0;
  std::uint64_t violations = 0;
  std::vector<std::uint64_t> host_digests;
  std::vector<double> host_busy_s;
  cluster::SyncStats sync;  ///< diagnostics, not compared

  bool operator==(const FleetRun& o) const {
    return digest == o.digest && records == o.records &&
           admitted == o.admitted &&
           migrations_completed == o.migrations_completed &&
           precopy_rounds == o.precopy_rounds &&
           migrated_bytes == o.migrated_bytes &&
           balance_actions == o.balance_actions &&
           host_digests == o.host_digests && host_busy_s == o.host_busy_s;
  }
};

/// One heterogeneous fleet under churn, a scripted cross-host migration,
/// and the balancer — the cluster couplings the lookahead synchronizer has
/// to serialize.  `sim_threads` and `window_batch` are the only degrees of
/// freedom under test.
FleetRun run_fleet(runner::SchedKind sched, std::uint64_t seed, int num_hosts,
                   int sim_threads, bool window_batch = true) {
  cluster::Config ccfg;
  ccfg.seed = seed;
  ccfg.sim_threads = sim_threads;
  ccfg.window_batch = window_batch;
  ccfg.balance_period = sim::Time::ms(150);
  ccfg.balance_threshold = 0.2;

  std::vector<cluster::HostSpec> hosts(static_cast<std::size_t>(num_hosts));
  for (int id = 1; id < num_hosts; id += 2) {
    hosts[static_cast<std::size_t>(id)].machine =
        numa::MachineConfig::four_node_server();
  }
  cluster::Cluster fleet(ccfg, hosts, runner::scheduler_factory(sched));
  cluster::FleetCheck check(fleet);

  int mover = -1;
  for (int id = 0; id < num_hosts; ++id) {
    cluster::VmSpec burner;
    burner.name = "burner" + std::to_string(id);
    burner.mem_bytes = 256 * kMiB;
    burner.vcpus = 2;
    burner.host = id;
    burner.workload = runner::hungry_workload();
    burner.dirty_bytes_per_s = runner::hungry_dirty_rate(burner.mem_bytes);
    const int vm = fleet.admit(std::move(burner));
    if (id == 0) mover = vm;

    cluster::VmSpec ticker;
    ticker.name = "ticker" + std::to_string(id);
    ticker.mem_bytes = 128 * kMiB;
    ticker.vcpus = 2;
    ticker.host = id;
    ticker.workload = runner::ticker_workload();
    ticker.dirty_bytes_per_s = runner::ticker_dirty_rate(ticker.mem_bytes);
    fleet.admit(std::move(ticker));
  }
  fleet.start();

  fleet.engine().schedule_at(sim::Time::ms(50),
                             [&fleet, mover] { fleet.migrate(mover, 1); });

  runner::ChurnOptions copts;
  copts.seed = seed;
  copts.mean_interarrival = sim::Time::ms(30);
  copts.mean_lifetime = sim::Time::ms(80);
  copts.max_live = 2 * num_hosts;
  runner::ChurnDriver churn(fleet, copts);
  churn.start();

  // 256 MiB over the 1.25 GB/s migration NIC needs ~0.27 s of pre-copy +
  // cutover; 450 ms covers it with margin.
  runner::run_cluster_until(fleet, nullptr, sim::Time::ms(450));
  churn.drain();

  FleetRun out;
  out.digest = fleet.fleet_digest();
  for (int id = 0; id < num_hosts; ++id) {
    out.records += fleet.tracer(id).total_recorded();
    out.host_digests.push_back(fleet.tracer(id).digest());
    out.host_busy_s.push_back(fleet.host(id).total_busy_time().to_seconds());
  }
  out.admitted = fleet.admitted();
  out.migrations_completed = fleet.migrations_completed();
  out.precopy_rounds = fleet.precopy_rounds();
  out.migrated_bytes = fleet.migrated_bytes();
  out.balance_actions = fleet.balance_actions();
  out.violations = check.total_violations();
  out.sync = fleet.sync_stats();
  return out;
}

TEST(PdesDifferential, BatchedUnbatchedAndSerialAgreeForEverySchedulerSeedAndFleet) {
  for (const runner::SchedKind sched : runner::paper_schedulers()) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      for (const int num_hosts : {2, 4}) {
        SCOPED_TRACE(std::string(runner::to_string(sched)) + " seed " +
                     std::to_string(seed) + " hosts " +
                     std::to_string(num_hosts));
        const FleetRun serial = run_fleet(sched, seed, num_hosts, 1);
        const FleetRun batched = run_fleet(sched, seed, num_hosts, num_hosts,
                                           /*window_batch=*/true);
        const FleetRun unbatched = run_fleet(sched, seed, num_hosts, num_hosts,
                                             /*window_batch=*/false);

        ASSERT_GT(serial.records, 0u);
        EXPECT_GE(serial.migrations_completed, 1u)
            << "the sweep must exercise a cross-host live migration";
        EXPECT_EQ(serial.violations, 0u);
        EXPECT_EQ(batched.violations, 0u)
            << "FleetCheck must stay clean on every shard";
        EXPECT_EQ(unbatched.violations, 0u);
        EXPECT_TRUE(batched == serial)
            << "--sim-threads N (batched windows) diverged from the serial"
            << " reference:\n"
            << "  serial  " << trace::digest_hex(serial.digest) << " ("
            << serial.records << " records)\n"
            << "  batched " << trace::digest_hex(batched.digest) << " ("
            << batched.records << " records)\n"
            << "see docs/PDES.md for the divergence debugging workflow";
        EXPECT_TRUE(unbatched == serial)
            << "--no-window-batch diverged from the serial reference — the"
            << " escape hatch itself broke (docs/PDES.md)";
      }
    }
  }
}

TEST(PdesDifferential, ThreadCountNeverChangesTheStream) {
  // Oversubscription (threads > hosts, threads > cores) and every count in
  // between land on the same stream: thread count only changes who pops a
  // shard, never the order within one.
  const FleetRun serial = run_fleet(runner::SchedKind::kVprobe, 9, 4, 1);
  for (const int threads : {2, 3, 4, 8}) {
    SCOPED_TRACE("sim_threads " + std::to_string(threads));
    EXPECT_TRUE(run_fleet(runner::SchedKind::kVprobe, 9, 4, threads) == serial);
  }
}

TEST(PdesDifferential, ShardedRunsAreReproducible) {
  const FleetRun a = run_fleet(runner::SchedKind::kCredit, 3, 4, 4);
  const FleetRun b = run_fleet(runner::SchedKind::kCredit, 3, 4, 4);
  EXPECT_TRUE(a == b) << "back-to-back sharded runs must be bit-identical";
}

// -- Equal-time control/host ties ------------------------------------------------

TEST(PdesTies, MigrationCompletionTieIsCountedInBothLoops) {
  // The shortest known reproducer of a sharded/serial divergence (ROADMAP
  // item 3, docs/PDES.md fact 2).  At seed 41 the balancer moves ticker0
  // to host 1 at 150 ms and back at 300 ms; both pre-copies take the same
  // 108.8 ms.  The first arrival reschedules a host-1 PCPU, whose 30 ms
  // Credit slices then stay phase-locked to it, so the second completion
  // (408,815,334 ns, one 150 ms balancer period later) lands exactly on a
  // slice end.  Serial order fires the slice end before the retire of the
  // source domain; the synchronizer fires the control event first, and
  // host 1's trace diverges there.  Both window modes must count the tie
  // and name it.
  const FleetRun serial = run_fleet(runner::SchedKind::kCredit, 41, 2, 1);
  const FleetRun batched = run_fleet(runner::SchedKind::kCredit, 41, 2, 2,
                                     /*window_batch=*/true);
  const FleetRun unbatched = run_fleet(runner::SchedKind::kCredit, 41, 2, 2,
                                       /*window_batch=*/false);
  for (const FleetRun* run : {&batched, &unbatched}) {
    EXPECT_GT(run->sync.touched_ties, 0u);
    EXPECT_GE(run->sync.equal_time_ties, run->sync.touched_ties);
    EXPECT_EQ(run->sync.first_tie_host, 1);
    EXPECT_EQ(run->sync.first_tie_at, sim::Time::ns(408'815'334));
  }
  EXPECT_EQ(batched.sync.touched_ties, unbatched.sync.touched_ties);
  EXPECT_EQ(batched.sync.equal_time_ties, unbatched.sync.equal_time_ties);
  EXPECT_EQ(serial.sync.equal_time_ties, 0u) << "serial runs count nothing";
  // The known divergence itself.  When equal-time order is enforced, this
  // becomes EXPECT_EQ and joins the differential sweep.
  EXPECT_NE(batched.digest, serial.digest);
}

TEST(PdesTies, SmokeFleetTiesOnlyOnTheGridAndUntouched) {
  // The differential sweep's fleet ties often: the churn start, the
  // balancer and the scripted migration fire on the 10 ms PCPU tick grid.
  // None of those control events acts on the tied host, so no tie is
  // touched and the sharded run equals the serial one.
  const FleetRun serial = run_fleet(runner::SchedKind::kCredit, 7, 4, 1);
  const FleetRun sharded = run_fleet(runner::SchedKind::kCredit, 7, 4, 4);
  EXPECT_GT(sharded.sync.equal_time_ties, 0u);
  EXPECT_EQ(sharded.sync.touched_ties, 0u);
  EXPECT_EQ(sharded.sync.first_tie_host, -1);
  EXPECT_TRUE(sharded == serial);
}

// -- Synchronizer mechanics -----------------------------------------------------

/// A minimal sharded fleet with no VMs: the only host events are the 10 ms
/// staggered PCPU tick grids (1.25 ms spacing on the 8-PCPU xeon, 0.3125 ms
/// on the 32-PCPU four-node box), so a balancer cadence tighter than the
/// densest grid makes control events denser than host events — the
/// coalescing regime.
std::unique_ptr<cluster::Cluster> make_idle_fleet(int sim_threads,
                                                  sim::Time balance_period,
                                                  bool window_batch = true) {
  cluster::Config ccfg;
  ccfg.seed = 1;
  ccfg.sim_threads = sim_threads;
  ccfg.window_batch = window_batch;
  ccfg.balance_period = balance_period;
  std::vector<cluster::HostSpec> hosts(2);
  hosts[1].machine = numa::MachineConfig::four_node_server();
  return std::make_unique<cluster::Cluster>(
      ccfg, hosts, runner::scheduler_factory(runner::SchedKind::kCredit));
}

TEST(PdesBatched, CoalescesControlBurstsAndSkipsIdleShards) {
  auto fleet = make_idle_fleet(2, sim::Time::us(200));
  fleet->start();  // arms the tick grids and the 200 us balancer
  fleet->run_until(sim::Time::ms(100));
  const cluster::SyncStats sync = fleet->sync_stats();
  EXPECT_GE(sync.windows, 499u) << "one window per balancer tick";
  EXPECT_EQ(sync.windows, sync.windows_coalesced + sync.barriers - 1)
      << "every window either coalesces or pays exactly one barrier (the"
      << " +1 is the final inclusive pass)";
  EXPECT_GT(sync.windows_coalesced, 0u)
      << "balancer ticks landing between host ticks must fire with no"
      << " shard pass at all";
  EXPECT_LT(sync.barriers, sync.control_events)
      << "batching must pay fewer barriers than control events";
  EXPECT_GT(sync.shard_skips, 0u)
      << "heterogeneous tick grids must leave one shard idle in some"
      << " windows";
  // window_batch off counts every shard as busy: one barrier per window.
  auto ref = make_idle_fleet(2, sim::Time::us(200), /*window_batch=*/false);
  ref->start();
  ref->run_until(sim::Time::ms(100));
  const cluster::SyncStats unbatched = ref->sync_stats();
  EXPECT_EQ(unbatched.windows_coalesced, 0u);
  EXPECT_EQ(unbatched.barriers, unbatched.windows + 1);
  EXPECT_EQ(unbatched.shard_dispatches, 2 * unbatched.barriers)
      << "every barrier dispatches both shards";
  EXPECT_EQ(unbatched.shard_skips, 0u);
  EXPECT_LT(sync.barriers, unbatched.barriers);
}

TEST(PdesBatched, SerialModeReportsZeroSyncStats) {
  auto fleet = make_idle_fleet(1, sim::Time::ms(1));
  fleet->start();
  fleet->run_until(sim::Time::ms(50));
  const cluster::SyncStats sync = fleet->sync_stats();
  EXPECT_EQ(sync.windows, 0u);
  EXPECT_EQ(sync.barriers, 0u);
  EXPECT_EQ(sync.pool_wakeups, 0u);
}

TEST(PdesBatched, ControlArmOntoPreviouslyIdleShardIsDispatched) {
  // No start(): the shards are completely empty, so every window before the
  // arm coalesces.  A control event then schedules onto host 1's shard —
  // both an equal-time event (legal: the skipped shard's clock was advanced
  // to the coupling point before control fired) and a later one.  The next
  // window must see the shard's new events and dispatch it; skipping it
  // would silently drop both events (and abort on advance_to's debug
  // assert).
  auto fleet = make_idle_fleet(2, sim::Time::zero());
  int fired_equal_time = 0;
  int fired_later = 0;
  // Two control timestamps before the arm force coalesced windows first.
  fleet->engine().schedule_at(sim::Time::ms(1), [] {});
  fleet->engine().schedule_at(sim::Time::ms(2), [] {});
  fleet->engine().schedule_at(sim::Time::ms(3), [&] {
    sim::Engine& shard = fleet->host_engine(1);
    EXPECT_EQ(shard.now(), sim::Time::ms(3))
        << "skipped shards must be parked exactly at the coupling point"
        << " when control code runs";
    shard.schedule_at(sim::Time::ms(3), [&] { ++fired_equal_time; });
    shard.schedule(sim::Time::ms(1), [&] { ++fired_later; });
  });
  fleet->engine().schedule_at(sim::Time::ms(5), [] {});  // post-arm coupling
  fleet->run_until(sim::Time::ms(6));
  EXPECT_EQ(fired_equal_time, 1);
  EXPECT_EQ(fired_later, 1);
  const cluster::SyncStats sync = fleet->sync_stats();
  EXPECT_GE(sync.windows_coalesced, 2u)
      << "the pre-arm control events see empty shards";
  EXPECT_GE(sync.shard_dispatches, 1u)
      << "the post-arm window must dispatch the newly-busy shard";
  EXPECT_EQ(fleet->host_engine(1).executed(), 2u);
  EXPECT_EQ(fleet->host_engine(1).now(), sim::Time::ms(6));
  EXPECT_EQ(fleet->host_engine(0).now(), sim::Time::ms(6))
      << "idle shards still track the deadline via advance_to";
}

// -- Scenario-level: fleet_mix under PDES ---------------------------------------

std::string scenario_dir() { return std::string(VPROBE_SCENARIO_DIR); }
std::string golden_path() {
  return std::string(VPROBE_GOLDEN_DIR) + "/cluster.txt";
}

runner::ScenarioSpec load_scenario(const std::string& name) {
  const std::string path = scenario_dir() + "/" + name + ".scn";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return runner::parse_scenario(buf.str());
}

runner::ScenarioSpec load_fleet_mix() { return load_scenario("fleet_mix"); }

struct GoldenEntry {
  std::uint64_t records = 0;
  std::string digest;
};

std::map<std::string, GoldenEntry> load_goldens() {
  std::map<std::string, GoldenEntry> goldens;
  std::ifstream in(golden_path());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    GoldenEntry entry;
    if (fields >> key >> entry.records >> entry.digest) goldens[key] = entry;
  }
  return goldens;
}

void save_goldens(const std::map<std::string, GoldenEntry>& goldens) {
  std::ofstream out(golden_path());
  // Keep this header byte-identical to the ones in tests/cluster_test.cpp
  // and tests/serving_test.cpp — whichever test regenerates last must not
  // churn the others' docs.
  out << "# Cluster golden digests: <key> <records> <fnv1a-64 hex>\n"
      << "# fleet_mix: examples/scenarios/fleet_mix.scn — 4 heterogeneous\n"
      << "# hosts, scripted live migration, balancer, churn; records is the\n"
      << "# fleet-wide trace count, digest the host-id-ordered fleet fold.\n"
      << "# fleet_mix_pdes: the same scenario at --sim-threads 4; the PDES\n"
      << "# contract requires it to EQUAL fleet_mix byte for byte.\n"
      << "# clustered_control: examples/scenarios/clustered_control.scn —\n"
      << "# control events denser than host events (2 ms churn vs 10 ms tick\n"
      << "# grids, coincident migrations); pins the batched-window regime.\n"
      << "# spike_fleet: examples/scenarios/spike_fleet.scn — open-loop\n"
      << "# Poisson serving fleet (kv servers, 4x arrival spike, SLO\n"
      << "# accounting, churn); pins the serving stack's event stream.\n"
      << "# Regenerate: VPROBE_UPDATE_GOLDEN=1 ctest -L cluster -L pdes"
         " -L serving\n";
  for (const auto& [key, entry] : goldens) {
    out << key << ' ' << entry.records << ' ' << entry.digest << '\n';
  }
}

bool update_mode() { return std::getenv("VPROBE_UPDATE_GOLDEN") != nullptr; }

TEST(FleetMixPdes, FullMetricsMatchSerialPath) {
  runner::ScenarioSpec spec = load_fleet_mix();
  ASSERT_TRUE(spec.cluster_mode());
  spec.sim_threads = 1;
  const stats::RunMetrics serial = runner::run_scenario(spec);
  spec.sim_threads = 4;
  const stats::RunMetrics sharded = runner::run_scenario(spec);

  ASSERT_TRUE(serial.completed);
  ASSERT_TRUE(sharded.completed);
  EXPECT_EQ(sharded.app_runtime_s, serial.app_runtime_s);
  EXPECT_EQ(sharded.sim_seconds, serial.sim_seconds);
  EXPECT_EQ(sharded.migrations, serial.migrations);
  EXPECT_EQ(sharded.cross_node_migrations, serial.cross_node_migrations);
  EXPECT_EQ(sharded.total_mem_accesses, serial.total_mem_accesses);
  EXPECT_EQ(sharded.remote_mem_accesses, serial.remote_mem_accesses);
  EXPECT_EQ(sharded.cluster.fleet_digest, serial.cluster.fleet_digest);
  EXPECT_EQ(sharded.cluster.admitted, serial.cluster.admitted);
  EXPECT_EQ(sharded.cluster.rejected, serial.cluster.rejected);
  EXPECT_EQ(sharded.cluster.migrations_started, serial.cluster.migrations_started);
  EXPECT_EQ(sharded.cluster.migrations_completed,
            serial.cluster.migrations_completed);
  EXPECT_EQ(sharded.cluster.precopy_rounds, serial.cluster.precopy_rounds);
  EXPECT_EQ(sharded.cluster.migrated_bytes, serial.cluster.migrated_bytes);
  EXPECT_EQ(sharded.cluster.balance_actions, serial.cluster.balance_actions);
  ASSERT_EQ(sharded.hosts.size(), serial.hosts.size());
  for (std::size_t i = 0; i < serial.hosts.size(); ++i) {
    EXPECT_EQ(sharded.hosts[i].trace_digest, serial.hosts[i].trace_digest)
        << "host " << i << " stream diverged";
    EXPECT_EQ(sharded.hosts[i].trace_records, serial.hosts[i].trace_records);
    EXPECT_EQ(sharded.hosts[i].busy_s, serial.hosts[i].busy_s);
    EXPECT_EQ(sharded.hosts[i].migrations, serial.hosts[i].migrations);
  }
}

TEST(FleetMixPdes, GoldenFleetDigestAtFourThreads) {
  runner::ScenarioSpec spec = load_fleet_mix();
  ASSERT_TRUE(spec.cluster_mode());
  ASSERT_GE(spec.num_hosts(), 4);
  spec.sim_threads = 4;
  const stats::RunMetrics m = runner::run_scenario(spec);
  ASSERT_TRUE(m.completed);
  ASSERT_GE(m.cluster.migrations_completed, 1u);

  GoldenEntry actual;
  for (const auto& h : m.hosts) actual.records += h.trace_records;
  actual.digest = trace::digest_hex(m.cluster.fleet_digest);
  ASSERT_GT(actual.records, 0u);

  auto goldens = load_goldens();
  if (update_mode()) {
    goldens["fleet_mix_pdes"] = actual;
    save_goldens(goldens);
    GTEST_SKIP() << "golden updated: fleet_mix_pdes = " << actual.digest;
  }
  ASSERT_TRUE(goldens.count("fleet_mix_pdes"))
      << "no golden for 'fleet_mix_pdes' in " << golden_path()
      << " — run VPROBE_UPDATE_GOLDEN=1 ctest -L pdes";
  EXPECT_EQ(goldens["fleet_mix_pdes"].records, actual.records);
  EXPECT_EQ(goldens["fleet_mix_pdes"].digest, actual.digest)
      << "sharded fleet stream changed. If intentional, regenerate with "
      << "VPROBE_UPDATE_GOLDEN=1 ctest -L pdes";

  // The whole point: the PDES golden IS the serial golden.  A PR that
  // regenerates one without the other broke determinism, not the trace.
  ASSERT_TRUE(goldens.count("fleet_mix"))
      << "serial golden missing — run VPROBE_UPDATE_GOLDEN=1 ctest -L cluster";
  EXPECT_EQ(goldens["fleet_mix"].records, actual.records)
      << "--sim-threads 4 record count diverged from the serial golden";
  EXPECT_EQ(goldens["fleet_mix"].digest, actual.digest)
      << "--sim-threads 4 fleet digest diverged from the serial golden";
}

// -- Scenario-level: clustered_control, the coalescing regime -------------------
//
// fleet_mix exercises scripted migrations under a sparse control plane;
// clustered_control inverts the density: ~2 ms churn interarrivals and a
// 50 ms balancer against hosts that mostly just tick, plus migrations on
// coincident timestamps.  This is the workload batched windows were
// built for — the differential test additionally asserts the batch
// counters prove coalescing actually happened (barriers < control events).

TEST(ClusteredControl, SerialBatchedAndUnbatchedProduceOneStream) {
  runner::ScenarioSpec spec = load_scenario("clustered_control");
  ASSERT_TRUE(spec.cluster_mode());
  ASSERT_EQ(spec.num_hosts(), 4);

  spec.sim_threads = 1;
  const stats::RunMetrics serial = runner::run_scenario(spec);
  spec.sim_threads = 4;
  const stats::RunMetrics batched = runner::run_scenario(spec);
  spec.window_batch = false;
  const stats::RunMetrics unbatched = runner::run_scenario(spec);

  for (const stats::RunMetrics* m : {&batched, &unbatched}) {
    EXPECT_EQ(m->cluster.fleet_digest, serial.cluster.fleet_digest);
    EXPECT_EQ(m->cluster.admitted, serial.cluster.admitted);
    EXPECT_EQ(m->cluster.rejected, serial.cluster.rejected);
    EXPECT_EQ(m->cluster.migrations_started, serial.cluster.migrations_started);
    EXPECT_EQ(m->cluster.migrations_completed,
              serial.cluster.migrations_completed);
    EXPECT_EQ(m->cluster.balance_actions, serial.cluster.balance_actions);
    ASSERT_EQ(m->hosts.size(), serial.hosts.size());
    for (std::size_t i = 0; i < serial.hosts.size(); ++i) {
      EXPECT_EQ(m->hosts[i].trace_digest, serial.hosts[i].trace_digest)
          << "host " << i << " stream diverged";
      EXPECT_EQ(m->hosts[i].trace_records, serial.hosts[i].trace_records);
    }
  }
  // Both scripted coincident migrations plus balancer/churn moves ran.
  EXPECT_GE(serial.cluster.migrations_completed, 3u);

  // The counters tell the three modes apart even though the streams can't:
  // batched coalesces (pays fewer barriers than it fires control events),
  // unbatched pays one barrier per window, serial pays none.
  EXPECT_GT(batched.cluster.sync_windows_coalesced, 0u);
  EXPECT_LT(batched.cluster.sync_barriers, batched.cluster.sync_control_events);
  EXPECT_GT(batched.cluster.sync_shard_skips, 0u);
  EXPECT_EQ(unbatched.cluster.sync_windows_coalesced, 0u);
  // One barrier per window, plus one tail barrier per run_until() call.
  EXPECT_GE(unbatched.cluster.sync_barriers, unbatched.cluster.sync_windows);
  EXPECT_LT(batched.cluster.sync_barriers, unbatched.cluster.sync_barriers);
  EXPECT_EQ(serial.cluster.sync_windows, 0u);
  EXPECT_EQ(serial.cluster.sync_barriers, 0u);
}

TEST(ClusteredControl, GoldenFleetDigestAtFourThreads) {
  runner::ScenarioSpec spec = load_scenario("clustered_control");
  ASSERT_TRUE(spec.cluster_mode());
  spec.sim_threads = 4;
  const stats::RunMetrics m = runner::run_scenario(spec);

  GoldenEntry actual;
  for (const auto& h : m.hosts) actual.records += h.trace_records;
  actual.digest = trace::digest_hex(m.cluster.fleet_digest);
  ASSERT_GT(actual.records, 0u);

  auto goldens = load_goldens();
  if (update_mode()) {
    goldens["clustered_control"] = actual;
    save_goldens(goldens);
    GTEST_SKIP() << "golden updated: clustered_control = " << actual.digest;
  }
  ASSERT_TRUE(goldens.count("clustered_control"))
      << "no golden for 'clustered_control' in " << golden_path()
      << " — run VPROBE_UPDATE_GOLDEN=1 ctest -L pdes";
  EXPECT_EQ(goldens["clustered_control"].records, actual.records);
  EXPECT_EQ(goldens["clustered_control"].digest, actual.digest)
      << "clustered_control fleet stream changed. If intentional, regenerate "
      << "with VPROBE_UPDATE_GOLDEN=1 ctest -L pdes";
}

// -- Scenario-level: spike_fleet, the open-loop serving regime ------------------
//
// fleet_mix and clustered_control exercise batch workloads; spike_fleet
// adds the serving stack: open-loop Poisson arrivals on the control engine
// (a control-event source denser than the churn driver's), KV servers whose
// block/wake churn rides every host shard, and per-request latency/SLO
// accounting that must be invariant under sharding.

TEST(SpikeFleetPdes, ServingFleetShardsIdentically) {
  runner::ScenarioSpec spec = load_scenario("spike_fleet");
  ASSERT_TRUE(spec.cluster_mode());
  ASSERT_TRUE(spec.openloop_enabled);

  spec.sim_threads = 1;
  const stats::RunMetrics serial = runner::run_scenario(spec);
  ASSERT_GT(serial.latency.count(), 0u);
  ASSERT_GT(serial.slo_violations, 0u)
      << "the spike must push the fleet past its SLO";

  for (const int threads : {2, 4}) {
    for (const bool batch : {true, false}) {
      SCOPED_TRACE("sim_threads " + std::to_string(threads) +
                   (batch ? " batched" : " unbatched"));
      spec.sim_threads = threads;
      spec.window_batch = batch;
      const stats::RunMetrics sharded = runner::run_scenario(spec);
      EXPECT_EQ(sharded.cluster.fleet_digest, serial.cluster.fleet_digest)
          << "see docs/PDES.md for the divergence debugging workflow";
      ASSERT_EQ(sharded.hosts.size(), serial.hosts.size());
      for (std::size_t i = 0; i < serial.hosts.size(); ++i) {
        EXPECT_EQ(sharded.hosts[i].trace_digest, serial.hosts[i].trace_digest)
            << "host " << i << " stream diverged";
        EXPECT_EQ(sharded.hosts[i].trace_records, serial.hosts[i].trace_records);
        EXPECT_TRUE(sharded.hosts[i].latency == serial.hosts[i].latency)
            << "host " << i << " latency histogram diverged";
        EXPECT_EQ(sharded.hosts[i].slo_violations,
                  serial.hosts[i].slo_violations);
      }
      EXPECT_TRUE(sharded.latency == serial.latency)
          << "the fleet latency histogram must be bit-identical under"
          << " sharding";
      EXPECT_EQ(sharded.slo_violations, serial.slo_violations);
      EXPECT_DOUBLE_EQ(sharded.throughput_rps, serial.throughput_rps);
    }
  }
}

}  // namespace
}  // namespace vprobe
