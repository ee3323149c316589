// Cluster control-plane suite: per-host RNG stream derivation, the Gudkov
// placement filter, cluster-of-1 equivalence with the single-machine path,
// the live-migration lifecycle under the fleet invariant checker, churn
// through the control plane, scenario-level determinism (--jobs 1 == N),
// and the fleet_mix golden digest.
//
//   ctest -L cluster
//
// The golden is re-blessed like the single-machine traces:
//   VPROBE_UPDATE_GOLDEN=1 ctest -L cluster
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
#include "cluster/placement.hpp"
#include "runner/churn.hpp"
#include "runner/fleet.hpp"
#include "runner/run_plan.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_file.hpp"
#include "sim/rng.hpp"
#include "trace/digest.hpp"
#include "trace/tracer.hpp"
#include "workload/hungry.hpp"

namespace vprobe::cluster {

/// Breaks the control plane's reservation bookkeeping behind its back.
struct ClusterFaults {
  static void leak_reservation(Cluster& c, int host, std::int64_t chunks) {
    c.reserved_chunks_.at(static_cast<std::size_t>(host)) += chunks;
  }
};

}  // namespace vprobe::cluster

namespace vprobe {
namespace {

constexpr std::int64_t kMiB = 1024ll * 1024;
constexpr std::int64_t kGiB = 1024ll * kMiB;

// -- Child RNG streams --------------------------------------------------------

TEST(ChildSeed, HostZeroGetsTheRunSeed) {
  // The cluster-of-1 contract: host 0's stream IS the single-machine stream.
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 0xdeadbeefull}) {
    EXPECT_EQ(sim::Rng::child_seed(seed, 0), seed);
  }
}

TEST(ChildSeed, HostStreamsAreDistinctAndOrderFree) {
  const std::uint64_t seed = 99;
  std::vector<std::uint64_t> seeds;
  for (int id = 0; id < 16; ++id) {
    seeds.push_back(sim::Rng::child_seed(seed, id));
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << i << " vs " << j;
    }
  }
  // Pure function of (seed, id): recomputing in any order changes nothing.
  EXPECT_EQ(sim::Rng::child_seed(seed, 3), seeds[3]);
}

// -- Placement filter ---------------------------------------------------------

cluster::HostSpace make_space(std::vector<std::int64_t> free,
                              std::vector<std::int64_t> cap, int live_vcpus,
                              int cores_per_node) {
  cluster::HostSpace s;  // caller assigns s.host (pick_host returns it)
  s.free_chunks = std::move(free);
  s.capacity_chunks = std::move(cap);
  s.live_vcpus = live_vcpus;
  s.cores_per_node = cores_per_node;
  s.total_pcpus = cores_per_node * static_cast<int>(s.free_chunks.size());
  return s;
}

/// pick_host with the same request on every host (one chunk size).
int pick_for_all(const std::vector<cluster::HostSpace>& hosts,
                 const cluster::PlacementRequest& req) {
  const std::vector<cluster::PlacementRequest> reqs(hosts.size(), req);
  return cluster::pick_host(hosts, reqs);
}

TEST(Placement, ShapeFitNeedsKDistinctNodes) {
  // 3 pieces of 10 chunks: {10,10,10} fits, {30,0,0} does not.
  EXPECT_TRUE(cluster::fits_shape(std::vector<std::int64_t>{10, 10, 10}, 3, 10));
  EXPECT_FALSE(cluster::fits_shape(std::vector<std::int64_t>{30, 0, 0}, 3, 10));
  EXPECT_TRUE(cluster::fits_shape(std::vector<std::int64_t>{30, 0, 0}, 1, 30));
  EXPECT_FALSE(cluster::fits_shape(std::vector<std::int64_t>{9, 9}, 2, 10));
}

TEST(Placement, ShapeFitOutranksOverflowFit) {
  // Host 0 only fits by total (one node nearly full); host 1 admits the
  // 2-piece split.  Worst-fit headroom alone would pick host 0 (more total
  // free), so the test pins the class ranking.
  std::vector<cluster::HostSpace> hosts;
  hosts.push_back(make_space({100, 4}, {100, 100}, 0, 4));  // overflow-fit
  hosts.push_back(make_space({40, 40}, {100, 100}, 0, 4));  // shape-fit
  hosts[0].host = 0;
  hosts[1].host = 1;
  // 8 VCPUs on 4-core nodes want a 2-piece split (20 chunks per node):
  // host 0 only fits by total free, host 1 admits the split.
  const cluster::PlacementRequest req{40, 8};
  EXPECT_EQ(pick_for_all(hosts, req), 1);
}

TEST(Placement, WorstFitPrefersHeadroomThenLowestId) {
  std::vector<cluster::HostSpace> hosts;
  hosts.push_back(make_space({20, 20}, {100, 100}, 24, 4));  // loaded
  hosts.push_back(make_space({80, 80}, {100, 100}, 0, 4));   // empty
  hosts[0].host = 0;
  hosts[1].host = 1;
  const cluster::PlacementRequest req{10, 2};
  EXPECT_EQ(pick_for_all(hosts, req), 1);

  // Identical twins: deterministic lowest-id tiebreak.
  std::vector<cluster::HostSpace> twins;
  twins.push_back(make_space({80, 80}, {100, 100}, 0, 4));
  twins.push_back(make_space({80, 80}, {100, 100}, 0, 4));
  twins[0].host = 0;
  twins[1].host = 1;
  EXPECT_EQ(pick_for_all(twins, req), 0);
}

TEST(Placement, InfeasibleWhenMemoryOrCpuCapExceeded) {
  std::vector<cluster::HostSpace> hosts;
  hosts.push_back(make_space({4, 4}, {100, 100}, 0, 4));
  EXPECT_EQ(pick_for_all(hosts, cluster::PlacementRequest{50, 1}), -1);

  // The CPU cap admits up to kCpuOvercommit VCPUs per PCPU and no more:
  // 63 live VCPUs on 8 PCPUs take one more, not two.
  const int cap = static_cast<int>(8 * cluster::kCpuOvercommit);
  std::vector<cluster::HostSpace> full;
  full.push_back(make_space({80, 80}, {100, 100}, cap - 1, 4));
  full[0].host = 0;
  EXPECT_EQ(pick_for_all(full, cluster::PlacementRequest{4, 1}), 0);
  EXPECT_EQ(pick_for_all(full, cluster::PlacementRequest{4, 2}), -1);
}

TEST(Placement, AdmitPicksWhatPickHostPicksOnAMixedFleet) {
  // Cluster::admit places through pick_host: on a mixed fleet (two
  // geometries, two chunk sizes, so the request is sized per host) every
  // admission must land where pick_host ranks first over the same
  // host_space snapshots, and be refused exactly when it finds no host.
  cluster::Config ccfg;
  std::vector<cluster::HostSpec> hosts(3);
  hosts[1].machine = numa::MachineConfig::four_node_server();
  hosts[2].machine = numa::MachineConfig::four_node_server();
  hosts[2].machine.chunk_bytes = 16 * kMiB;
  cluster::Cluster fleet(ccfg, hosts,
                         runner::scheduler_factory(runner::SchedKind::kCredit));
  const std::int64_t mems[] = {3 * kGiB, 10 * kGiB, 18 * kGiB, 1 * kGiB + 5 * kMiB};
  const int vcpus[] = {2, 6, 12, 1, 4};
  std::vector<int> placed(3, 0);
  int refused = 0;
  for (int i = 0; i < 40; ++i) {
    std::vector<cluster::HostSpace> spaces;
    std::vector<cluster::PlacementRequest> reqs;
    cluster::VmSpec vm;
    vm.name = "vm" + std::to_string(i);
    vm.mem_bytes = mems[i % 4];
    vm.vcpus = vcpus[i % 5];
    for (int id = 0; id < fleet.num_hosts(); ++id) {
      const std::int64_t chunk = fleet.host(id).config().machine.chunk_bytes;
      spaces.push_back(fleet.host_space(id));
      reqs.push_back({(vm.mem_bytes + chunk - 1) / chunk, vm.vcpus});
    }
    const int expected = cluster::pick_host(spaces, reqs);
    const int vm_id = fleet.admit(std::move(vm));
    if (expected < 0) {
      EXPECT_EQ(vm_id, -1) << "admission " << i;
      ++refused;
      continue;
    }
    ASSERT_GE(vm_id, 0) << "admission " << i;
    EXPECT_EQ(fleet.host_of(vm_id), expected) << "admission " << i;
    ++placed[static_cast<std::size_t>(expected)];
  }
  // The sequence must exercise the ranking: every host wins at least once
  // and the fleet fills up.
  for (int n : placed) EXPECT_GT(n, 0);
  EXPECT_GT(refused, 0);

  // One request per host: a short list is a caller bug, not a refusal.
  const std::vector<cluster::HostSpace> two(2);
  const std::vector<cluster::PlacementRequest> one(1);
  EXPECT_THROW(cluster::pick_host(two, one), std::invalid_argument);
}

// -- Cluster-of-1 == single machine -------------------------------------------

TEST(ClusterOfOne, TraceDigestMatchesSingleMachinePath) {
  constexpr std::uint64_t kSeed = 11;
  const sim::Time horizon = sim::Time::ms(300);

  // Single-machine path: private engine, run seed, hungry guest.
  trace::Tracer solo_tracer(1 << 18);
  std::uint64_t solo_digest = 0;
  std::uint64_t solo_records = 0;
  {
    auto hv = runner::make_hypervisor(runner::SchedKind::kCredit, kSeed);
    hv->set_tracer(&solo_tracer);
    hv::Domain& dom = hv->create_domain("bg", 2 * kGiB, 4,
                                        numa::PlacementPolicy::kFillFirst, 0);
    wl::HungryLoops hungry(*hv, dom, runner::domain_vcpus(dom));
    hungry.start();
    hv->start();
    runner::run_until(*hv, [] { return false; }, horizon);
    hv->set_tracer(nullptr);
    solo_digest = solo_tracer.digest();
    solo_records = solo_tracer.total_recorded();
  }
  ASSERT_GT(solo_records, 0u);

  // Cluster of one: shared-engine host, child_seed(kSeed, 0) == kSeed, the
  // same guest admitted through the control plane.
  cluster::Config ccfg;
  ccfg.seed = kSeed;
  std::vector<cluster::HostSpec> hosts(1);
  cluster::Cluster fleet(ccfg, hosts,
                         runner::scheduler_factory(runner::SchedKind::kCredit));
  cluster::VmSpec vm;
  vm.name = "bg";
  vm.mem_bytes = 2 * kGiB;
  vm.vcpus = 4;
  vm.workload = runner::hungry_workload();
  ASSERT_GE(fleet.admit(std::move(vm)), 0);
  fleet.start();
  runner::run_cluster_until(fleet, nullptr, horizon);

  EXPECT_EQ(fleet.tracer(0).total_recorded(), solo_records);
  EXPECT_EQ(fleet.tracer(0).digest(), solo_digest)
      << "cluster-of-1 must replay the pre-refactor single-machine stream";
}

TEST(ClusterOfOne, ScenarioMetricsMatchSingleMachinePath) {
  // `machine xeon_e5620` (a cluster of one in the single-machine output
  // shape) and `machines xeon_e5620` (a one-host fleet) must measure the
  // same run; only the per-host breakdown differs.  The second body churns
  // a nearly full machine, so the admission filter refuses arrivals: both
  // shapes must draw and refuse them identically.
  struct Input {
    const char* what;
    std::string body;
    bool refuses;
  };
  const Input inputs[] = {
      {"static", R"(scheduler credit
seed 3
scale 0.05
horizon 120

vm name=only mem=2G vcpus=2
app vm=only kind=spec profile=soplex count=2 measure=1
)",
       false},
      {"refusing churn", R"(scheduler credit
seed 5
scale 0.05
horizon 120

vm name=big mem=20G vcpus=4
app vm=big kind=spec profile=soplex count=4 measure=1
churn interarrival=0.02 lifetime=0.3 max_live=8 mem_min=1G mem_max=3G
)",
       true},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.what);
    const auto single = runner::run_scenario(
        runner::parse_scenario("machine xeon_e5620\n" + in.body));
    const auto fleet = runner::run_scenario(
        runner::parse_scenario("machines xeon_e5620\n" + in.body));

    ASSERT_TRUE(single.completed);
    ASSERT_TRUE(fleet.completed);
    if (in.refuses) {
      EXPECT_GT(fleet.cluster.rejected, 0u);
    }
    EXPECT_EQ(fleet.app_runtime_s, single.app_runtime_s);
    EXPECT_EQ(fleet.migrations, single.migrations);
    EXPECT_EQ(fleet.cross_node_migrations, single.cross_node_migrations);
    EXPECT_EQ(fleet.total_mem_accesses, single.total_mem_accesses);
    EXPECT_EQ(fleet.remote_mem_accesses, single.remote_mem_accesses);
    EXPECT_EQ(fleet.cluster.admitted, single.cluster.admitted);
    EXPECT_EQ(fleet.cluster.rejected, single.cluster.rejected);
    EXPECT_FALSE(single.is_cluster_run());
    ASSERT_EQ(fleet.hosts.size(), 1u);
    EXPECT_GT(fleet.hosts[0].trace_records, 0u);
  }
}

// -- Host-construction-order invariance ----------------------------------------

TEST(Fleet, HostStreamUnaffectedByFleetSize) {
  // A VM pinned to host 1 must produce the same event stream whether the
  // fleet has 2 hosts or 3: host 1's RNG stream derives from (seed, 1)
  // alone, and host state never aliases across hosts.
  auto run_host1 = [](int fleet_size) {
    cluster::Config ccfg;
    ccfg.seed = 5;
    std::vector<cluster::HostSpec> hosts(static_cast<std::size_t>(fleet_size));
    cluster::Cluster fleet(
        ccfg, hosts, runner::scheduler_factory(runner::SchedKind::kCredit));
    cluster::VmSpec vm;
    vm.name = "pinned";
    vm.mem_bytes = 1 * kGiB;
    vm.vcpus = 4;
    vm.host = 1;
    vm.workload = runner::hungry_workload();
    EXPECT_GE(fleet.admit(std::move(vm)), 0);
    fleet.start();
    runner::run_cluster_until(fleet, nullptr, sim::Time::ms(200));
    return std::pair<std::uint64_t, std::uint64_t>(
        fleet.tracer(1).digest(), fleet.tracer(1).total_recorded());
  };
  EXPECT_EQ(run_host1(2), run_host1(3));
}

// -- Live-migration lifecycle ---------------------------------------------------

cluster::VmSpec hungry_vm(const std::string& name, std::int64_t mem, int vcpus,
                          int host = -1) {
  cluster::VmSpec vm;
  vm.name = name;
  vm.mem_bytes = mem;
  vm.vcpus = vcpus;
  vm.host = host;
  vm.workload = runner::hungry_workload();
  vm.dirty_bytes_per_s = runner::hungry_dirty_rate(mem);
  return vm;
}

TEST(Migration, LifecycleUnderFleetCheck) {
  cluster::Config ccfg;
  ccfg.seed = 13;
  std::vector<cluster::HostSpec> hosts(2);
  cluster::Cluster fleet(ccfg, hosts,
                         runner::scheduler_factory(runner::SchedKind::kCredit));
  cluster::FleetCheck check(fleet);

  const int mover = fleet.admit(hungry_vm("mover", 512 * kMiB, 2, /*host=*/0));
  const int anchor = fleet.admit(hungry_vm("anchor", 1 * kGiB, 2, /*host=*/1));
  ASSERT_GE(mover, 0);
  ASSERT_GE(anchor, 0);
  fleet.start();
  runner::run_cluster_until(fleet, nullptr, sim::Time::ms(50));

  ASSERT_TRUE(fleet.migrate(mover, 1));
  EXPECT_GT(fleet.reserved_chunks(1), 0);
  {
    const auto views = fleet.vms();
    const auto it = std::find_if(views.begin(), views.end(),
                                 [&](const auto& v) { return v.id == mover; });
    ASSERT_NE(it, views.end());
    EXPECT_TRUE(it->migrating);
    EXPECT_EQ(it->host, 0) << "resident on the source until cutover";
    EXPECT_EQ(it->dst_host, 1);
  }
  // In-flight rules: no second migration, no pause.
  const auto rejected_before = fleet.migrations_rejected();
  EXPECT_FALSE(fleet.migrate(mover, 1));
  EXPECT_EQ(fleet.migrations_rejected(), rejected_before + 1);
  EXPECT_FALSE(fleet.pause(mover));

  ASSERT_TRUE(runner::run_cluster_until(
      fleet, [&] { return fleet.migrations_completed() == 1; },
      sim::Time::sec(5)));
  EXPECT_EQ(fleet.host_of(mover), 1);
  ASSERT_NE(fleet.domain_of(mover), nullptr);
  EXPECT_EQ(fleet.reserved_chunks(1), 0);
  EXPECT_GE(fleet.precopy_rounds(), 1u);
  EXPECT_GE(fleet.migrated_bytes(), 512.0 * 1024 * 1024);
  EXPECT_EQ(fleet.host(0).domains().size(), 0u);
  EXPECT_EQ(fleet.host(1).domains().size(), 2u);

  // The guest keeps running on the destination.
  const double busy_at_cutover = fleet.host(1).total_busy_time().to_seconds();
  runner::run_cluster_until(fleet, nullptr, fleet.now() + sim::Time::ms(100));
  EXPECT_GT(fleet.host(1).total_busy_time().to_seconds(), busy_at_cutover);

  EXPECT_NO_THROW(check.expect_ok());
  EXPECT_TRUE(check.ok()) << check.total_violations() << " violations";
}

TEST(Migration, RefusalsAndCancellation) {
  cluster::Config ccfg;
  std::vector<cluster::HostSpec> hosts(2);
  cluster::Cluster fleet(ccfg, hosts,
                         runner::scheduler_factory(runner::SchedKind::kCredit));

  // A VM without a workload factory is not rebindable.
  cluster::VmSpec opaque;
  opaque.name = "opaque";
  opaque.mem_bytes = 1 * kGiB;
  opaque.vcpus = 2;
  opaque.host = 0;
  const int fixed = fleet.admit(std::move(opaque));
  ASSERT_GE(fixed, 0);
  EXPECT_FALSE(fleet.migrate(fixed, 1));

  const int mover = fleet.admit(hungry_vm("mover", 512 * kMiB, 2, /*host=*/0));
  ASSERT_GE(mover, 0);
  fleet.start();
  EXPECT_FALSE(fleet.migrate(mover, 0)) << "same-host move is a no-op";
  EXPECT_FALSE(fleet.migrate(mover, 7)) << "unknown destination";

  // Destroy mid-flight cancels the migration and releases the reservation.
  ASSERT_TRUE(fleet.migrate(mover, 1));
  EXPECT_GT(fleet.reserved_chunks(1), 0);
  EXPECT_TRUE(fleet.destroy(mover));
  EXPECT_EQ(fleet.reserved_chunks(1), 0);
  runner::run_cluster_until(fleet, nullptr, sim::Time::ms(100));
  EXPECT_EQ(fleet.migrations_completed(), 0u);
}

// -- FleetCheck fault injection -------------------------------------------------
//
// No public control-plane call breaks the two cluster rules, so each test
// corrupts the fleet behind the controller's back, as check_test.cpp's
// CheckInjection suite does for one machine, and the checker must name it.

/// Two Credit hosts running `mover` on host 0, checked clean.
struct FaultFleet {
  cluster::Cluster fleet{cluster::Config{}, std::vector<cluster::HostSpec>(2),
                         runner::scheduler_factory(runner::SchedKind::kCredit)};
  cluster::FleetCheck check{fleet};
  int mover = fleet.admit(hungry_vm("mover", 512 * kMiB, 2, /*host=*/0));

  FaultFleet() {
    fleet.start();
    runner::run_cluster_until(fleet, nullptr, sim::Time::ms(20));
    EXPECT_NO_THROW(check.expect_ok());
  }

  /// The cluster-level violations recorded so far.
  std::vector<std::string> cluster_violations() const {
    std::vector<std::string> out;
    for (const auto& v : check.violations()) {
      if (v.what.rfind("[cluster] ", 0) == 0) out.push_back(v.what);
    }
    return out;
  }
};

TEST(FleetCheckInjection, ShadowIncarnationBreaksResidency) {
  FaultFleet f;
  // The bug: a second incarnation of `mover` that the control plane never
  // created (a cutover that forgot to destroy its source would do this).
  f.fleet.host(1).create_domain("mover", 512 * kMiB, 2,
                                numa::PlacementPolicy::kFillFirst);
  f.check.on_transition(f.fleet);
  ASSERT_FALSE(f.check.ok());
  EXPECT_EQ(f.cluster_violations(),
            std::vector<std::string>{
                "[cluster] vm 'mover' resident on 2 hosts (recorded host 0)"});

  // expect_ok re-sweeps (a second report) and throws the violations,
  // each stamped with the simulated time it was found at.
  try {
    f.check.expect_ok();
    FAIL() << "expect_ok passed a fleet with a shadow incarnation";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("fleet invariant violations (2 total):", 0), 0u) << what;
    EXPECT_NE(what.find("\n  [" + f.fleet.now().str() +
                        "] [cluster] vm 'mover' resident on 2 hosts"),
              std::string::npos)
        << what;
  }
}

TEST(FleetCheckInjection, LeakedReservationIsCaught) {
  FaultFleet f;
  // The bug: destination chunks reserved for a migration that is not in
  // flight, so host 1 looks fuller than it is.
  cluster::ClusterFaults::leak_reservation(f.fleet, 1, 3);
  f.check.on_transition(f.fleet);
  EXPECT_EQ(f.cluster_violations(),
            std::vector<std::string>{
                "[cluster] host 1 reservation out of balance: 3 chunks, no "
                "inbound migration"});
}

TEST(FleetCheckInjection, NegativeReservationIsCaughtMidMigration) {
  FaultFleet f;
  ASSERT_TRUE(f.fleet.migrate(f.mover, 1));
  ASSERT_TRUE(f.check.ok()) << "a migration in flight is no violation";
  // The bug: the reservation released twice while the copy is running.
  const std::int64_t reserved = f.fleet.reserved_chunks(1);
  cluster::ClusterFaults::leak_reservation(f.fleet, 1, -2 * reserved);
  f.check.on_transition(f.fleet);
  EXPECT_EQ(f.cluster_violations(),
            std::vector<std::string>{
                "[cluster] host 1 reservation out of balance: " +
                std::to_string(-reserved) + " chunks, with inbound migration"});
}

// -- Teardown -------------------------------------------------------------------

TEST(ClusterTeardown, PendingTickleBatchIsDroppedCleanly) {
  // A wake-up tickle is one queued event whose members are linked through
  // their PCPUs.  Destroying the fleet before it fires must neither touch a
  // dead host nor leak (the asan preset runs this).
  for (const int threads : {1, 2}) {
    cluster::Config ccfg;
    ccfg.sim_threads = threads;
    std::vector<cluster::HostSpec> hosts(2);
    cluster::Cluster fleet(ccfg, hosts,
                           runner::scheduler_factory(runner::SchedKind::kCredit));
    cluster::VmSpec opaque;
    opaque.name = "opaque";
    opaque.mem_bytes = 1 * kGiB;
    opaque.vcpus = 1;
    opaque.host = 0;
    const int vm = fleet.admit(std::move(opaque));
    ASSERT_GE(vm, 0);
    hv::Hypervisor& host = fleet.host(0);
    const std::size_t before = fleet.host_engine(0).queued();
    host.wake(fleet.domain_of(vm)->vcpu(0));
    EXPECT_EQ(fleet.host_engine(0).queued(), before + 1) << threads;
    int waiting = 0;
    for (const hv::Pcpu& p : host.pcpus()) waiting += p.poke_pending ? 1 : 0;
    EXPECT_EQ(waiting, host.topology().num_pcpus())
        << "the target and every idle peer wait in the one batch";
  }
}

// -- Churn through the control plane --------------------------------------------

TEST(FleetChurn, AdmitsDeterministicallyUnderChecker) {
  auto run_once = [] {
    cluster::Config ccfg;
    ccfg.seed = 21;
    std::vector<cluster::HostSpec> hosts(2);
    hosts[1].machine = numa::MachineConfig::four_node_server();
    cluster::Cluster fleet(
        ccfg, hosts, runner::scheduler_factory(runner::SchedKind::kCredit));
    cluster::FleetCheck check(fleet);
    fleet.start();

    runner::ChurnOptions copts;
    copts.seed = 21;
    copts.mean_interarrival = sim::Time::ms(20);
    copts.mean_lifetime = sim::Time::ms(60);
    copts.max_live = 6;
    runner::ChurnDriver churn(fleet, copts);
    churn.start();
    runner::run_cluster_until(fleet, nullptr, sim::Time::ms(400));
    churn.drain();

    EXPECT_GT(churn.arrivals(), 0u);
    EXPECT_GT(churn.departures(), 0u);
    EXPECT_GT(fleet.admitted(), 0u);
    EXPECT_NO_THROW(check.expect_ok());
    return fleet.fleet_digest();
  };
  EXPECT_EQ(run_once(), run_once());
}

// -- Scenario-level determinism and the fleet_mix golden -------------------------

std::string scenario_dir() { return std::string(VPROBE_SCENARIO_DIR); }
std::string golden_path() {
  return std::string(VPROBE_GOLDEN_DIR) + "/cluster.txt";
}

runner::ScenarioSpec load_fleet_mix() {
  std::ifstream in(scenario_dir() + "/fleet_mix.scn");
  EXPECT_TRUE(in.is_open()) << "missing " << scenario_dir() << "/fleet_mix.scn";
  std::ostringstream buf;
  buf << in.rdbuf();
  return runner::parse_scenario(buf.str());
}

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
  // Keep this header byte-identical to the ones in tests/pdes_test.cpp and
  // tests/serving_test.cpp — whichever test regenerates last must not churn
  // the others' docs.
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

TEST(FleetMix, GoldenFleetDigest) {
  const runner::ScenarioSpec spec = load_fleet_mix();
  ASSERT_TRUE(spec.cluster_mode());
  ASSERT_GE(spec.num_hosts(), 4);
  const stats::RunMetrics m = runner::run_scenario(spec);
  ASSERT_TRUE(m.completed);
  ASSERT_GE(m.cluster.migrations_completed, 1u)
      << "fleet_mix must exercise at least one cross-host live migration";
  ASSERT_EQ(m.hosts.size(), static_cast<std::size_t>(spec.num_hosts()));

  GoldenEntry actual;
  for (const auto& h : m.hosts) actual.records += h.trace_records;
  actual.digest = trace::digest_hex(m.cluster.fleet_digest);
  ASSERT_GT(actual.records, 0u);

  auto goldens = load_goldens();
  if (update_mode()) {
    goldens["fleet_mix"] = actual;
    save_goldens(goldens);
    GTEST_SKIP() << "golden updated: fleet_mix = " << actual.digest;
  }
  ASSERT_TRUE(goldens.count("fleet_mix"))
      << "no golden for 'fleet_mix' in " << golden_path()
      << " — run VPROBE_UPDATE_GOLDEN=1 ctest -L cluster";
  EXPECT_EQ(goldens["fleet_mix"].records, actual.records);
  EXPECT_EQ(goldens["fleet_mix"].digest, actual.digest)
      << "fleet event stream changed. If intentional, regenerate with "
      << "VPROBE_UPDATE_GOLDEN=1 ctest -L cluster";
}

TEST(FleetMix, SameDigestSerialAndParallel) {
  const runner::ScenarioSpec spec = load_fleet_mix();
  const auto job = [&spec](const runner::RunConfig& c) {
    runner::ScenarioSpec seeded = spec;
    seeded.seed = c.seed;
    return runner::run_scenario(seeded);
  };
  runner::RunConfig cfg;
  cfg.seed = spec.seed;

  runner::RunPlan serial_plan;
  serial_plan.add(runner::RunSpec{cfg, "fleet", job});
  runner::ExecutorOptions serial;
  serial.jobs = 1;
  const auto lone = runner::execute_plan(serial_plan, serial).front();

  runner::RunPlan parallel_plan;
  parallel_plan.add(runner::RunSpec{cfg, "fleet-a", job});
  parallel_plan.add(runner::RunSpec{cfg, "fleet-b", job});
  parallel_plan.add(runner::RunSpec{cfg, "fleet-c", job});
  runner::ExecutorOptions parallel;
  parallel.jobs = 3;
  parallel.progress = false;
  const auto many = runner::execute_plan(parallel_plan, parallel);

  ASSERT_EQ(many.size(), 3u);
  for (const auto& m : many) {
    EXPECT_EQ(m.cluster.fleet_digest, lone.cluster.fleet_digest)
        << "--jobs N must be bit-identical to --jobs 1";
  }
}

// -- Parser and CLI error surfaces ------------------------------------------------

TEST(ScenarioErrors, UnknownSchedulerListsValidNames) {
  try {
    runner::parse_scenario("machine xeon_e5620\nscheduler bogus\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find(runner::valid_sched_names()), std::string::npos) << what;
  }
}

TEST(ScenarioErrors, UnknownMachineAndDirectiveListChoices) {
  try {
    runner::parse_scenario("machine pdp11\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("xeon_e5620"), std::string::npos)
        << e.what();
  }
  try {
    runner::parse_scenario("machine xeon_e5620\nfrobnicate 3\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frobnicate"), std::string::npos) << what;
    EXPECT_NE(what.find("machines"), std::string::npos)
        << "error should list the valid directives: " << what;
  }
}

TEST(ScenarioErrors, ClusterDirectivesRequireClusterMode) {
  const std::string vm = "vm name=a mem=1G vcpus=1\napp vm=a kind=hungry\n";
  EXPECT_THROW(runner::parse_scenario("machine xeon_e5620\n" + vm +
                                      "migrate vm=a to=1 at=0.1\n"),
               std::invalid_argument);
  EXPECT_THROW(runner::parse_scenario("machine xeon_e5620\n" + vm +
                                      "balance period=0.5\n"),
               std::invalid_argument);
  EXPECT_THROW(runner::parse_scenario("machine xeon_e5620\n" +
                                      std::string("vm name=a mem=1G vcpus=1"
                                                  " host=0\n")),
               std::invalid_argument);
  // And host ids must exist in the declared fleet.
  EXPECT_THROW(runner::parse_scenario("machines xeon_e5620*2\n" + vm +
                                      "migrate vm=a to=5 at=0.1\n"),
               std::invalid_argument);
}

TEST(SchedNames, RegistryRoundTripsAndRejectsUnknown) {
  const std::string names = runner::valid_sched_names();
  for (const char* name :
       {"credit", "vprobe", "vcpu_p", "lb", "brm", "autonuma"}) {
    EXPECT_TRUE(runner::sched_from_name(name).has_value()) << name;
    EXPECT_NE(names.find(name), std::string::npos) << name;
  }
  EXPECT_FALSE(runner::sched_from_name("roundrobin").has_value());
}

}  // namespace
}  // namespace vprobe
