// Randomized VM-lifecycle churn fuzzer plus targeted lifecycle regression
// tests, all under the invariant checker.
//
// The fuzzer interleaves domain create/destroy/pause/resume with workload
// bursts, VCPU wakes and forced migrations against every scheduler, seeded
// so any violation reproduces exactly:
//
//     ./build/tests/churn_fuzz_test --seed=7 --steps=200
//
// Two fleet-mode fuzzers ride the same flags: lifecycle churn through the
// cluster control plane (serial == sharded == repeat digests), and an
// open-loop serving mode that additionally churns arrival rates and SLO
// thresholds around live KV traffic.
//
// Flags (parsed before gtest's):
//   --smoke      shorter op sequences (CI gate)
//   --seed=N     fuzz only seed N (default: seeds 1, 2, 3)
//   --steps=N    ops per fuzz run (default 120; smoke 40)
//
// The targeted tests pin the teardown edge cases the fuzzer found first:
// destroying a domain whose VCPU is running, destroying mid-migration (the
// vcpu.pcpu-retarget transient), pause latching a timed wake, per-node
// free-page round-trips, and retirement cancelling pending wake timers.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/invariants.hpp"
#include "cluster/cluster.hpp"
#include "cluster/fleet_check.hpp"
#include "hv/pcpu.hpp"
#include "runner/fleet.hpp"
#include "scenario_helpers.hpp"
#include "sim/rng.hpp"
#include "trace/digest.hpp"
#include "workload/kv_server.hpp"
#include "workload/open_loop.hpp"

namespace vprobe::test {
namespace {

bool g_smoke = false;
std::uint64_t g_seed_override = 0;  // 0 = default seed set
int g_steps = 0;                    // 0 = default per mode

int fuzz_steps() { return g_steps > 0 ? g_steps : (g_smoke ? 40 : 120); }

std::vector<std::uint64_t> fuzz_seeds() {
  if (g_seed_override != 0) return {g_seed_override};
  return {1, 2, 3};
}

/// One dynamically created VM owned by the fuzzer.
struct FuzzVm {
  int domain_id = 0;
  std::vector<std::unique_ptr<FakeWork>> works;
  bool paused = false;
};

/// Run `steps` random lifecycle ops against the mini scenario, with the
/// invariant checker attached the whole time.  Everything derives from
/// (kind, seed); a failure message tells the reader how to reproduce.
void run_churn_fuzz(runner::SchedKind kind, std::uint64_t seed, int steps) {
  SCOPED_TRACE(std::string("scheduler=") + runner::to_string(kind) +
               " seed=" + std::to_string(seed) +
               " (reproduce: churn_fuzz_test --seed=" + std::to_string(seed) +
               " --steps=" + std::to_string(steps) + ")");

  MiniScenario sc = make_mini_scenario(kind, seed);
  hv::Hypervisor& hv = *sc.hv;
  check::InvariantChecker checker;
  checker.attach(hv);

  hv.start();
  for (hv::Domain* dom : {sc.vm1, sc.vm2}) {
    for (auto* vcpu : domain_vcpus(*dom)) hv.wake(*vcpu);
  }

  // The fuzzer's own decision stream — never the hypervisor's rng.
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x243f6a8885a308d3ull);
  std::vector<FuzzVm> vms;
  int next_vm = 0;

  const auto create_vm = [&] {
    const int vcpus = static_cast<int>(rng.uniform_int(1, 3));
    const std::int64_t chunk = hv.config().machine.chunk_bytes;
    const std::int64_t mem =
        rng.uniform_int(32, 256) * (1ll << 20) / chunk * chunk + chunk;
    std::int64_t free_chunks = 0;
    for (int n = 0; n < hv.memory_manager().num_nodes(); ++n) {
      free_chunks += hv.memory_manager().free_chunks(n);
    }
    if (mem / chunk > free_chunks) return;
    hv::Domain& dom =
        hv.create_domain("fuzz" + std::to_string(next_vm++), mem, vcpus,
                         numa::PlacementPolicy::kFillFirst);
    FuzzVm vm;
    vm.domain_id = dom.id();
    for (auto* vcpu : domain_vcpus(dom)) {
      auto work = std::make_unique<FakeWork>();
      work->total_instructions = 1e18;
      if (rng.chance(0.5)) {
        work->burst = 2e6;
        work->block_for = rng.chance(0.5) ? sim::Time::ms(1) : sim::Time::zero();
      }
      work->rpti = rng.uniform(2.0, 20.0);
      work->solo_miss = rng.uniform(0.02, 0.2);
      hv.bind_work(*vcpu, *work);
      vm.works.push_back(std::move(work));
      hv.wake(*vcpu);
    }
    vms.push_back(std::move(vm));
  };

  for (int step = 0; step < steps; ++step) {
    hv.engine().run_until(hv.now() +
                          sim::Time::us(rng.uniform_int(500, 4000)));
    const double op = rng.uniform();
    if (op < 0.22) {
      if (vms.size() < 6) create_vm();
    } else if (op < 0.40) {
      if (!vms.empty()) {
        const std::size_t pick = rng.pick_index(vms.size());
        hv::Domain* dom = hv.find_domain(vms[pick].domain_id);
        ASSERT_NE(dom, nullptr);
        hv.destroy_domain(*dom);
        vms.erase(vms.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (op < 0.55) {
      if (!vms.empty()) {
        FuzzVm& vm = vms[rng.pick_index(vms.size())];
        if (!vm.paused) {
          hv.pause_domain(*hv.find_domain(vm.domain_id));
          vm.paused = true;
        }
      }
    } else if (op < 0.70) {
      if (!vms.empty()) {
        FuzzVm& vm = vms[rng.pick_index(vms.size())];
        if (vm.paused) {
          hv.resume_domain(*hv.find_domain(vm.domain_id));
          vm.paused = false;
        }
      }
    } else if (op < 0.88) {
      // Random wake: a no-op on runnable/running VCPUs, a latch on paused.
      auto vcpus = hv.all_vcpus();
      if (!vcpus.empty()) hv.wake(*vcpus[rng.pick_index(vcpus.size())]);
    } else {
      // Forced migration, any state — including the running transient.
      auto vcpus = hv.all_vcpus();
      if (!vcpus.empty()) {
        hv.migrate_to_node(
            *vcpus[rng.pick_index(vcpus.size())],
            static_cast<numa::NodeId>(
                rng.uniform_int(0, hv.topology().num_nodes() - 1)));
      }
    }
  }

  // Teardown: destroy everything the fuzzer created (half while paused),
  // let the machine settle, and sweep one final time.
  for (FuzzVm& vm : vms) {
    if (hv::Domain* dom = hv.find_domain(vm.domain_id)) hv.destroy_domain(*dom);
  }
  vms.clear();
  hv.engine().run_until(hv.now() + sim::Time::ms(50));
  checker.check_now();

  if (!checker.ok()) {
    std::string first;
    for (const auto& v : checker.violations()) {
      first += "\n  " + v.what;
      if (first.size() > 2000) break;
    }
    ADD_FAILURE() << checker.total_violations()
                  << " invariant violation(s):" << first;
  }
  checker.detach();
}

TEST(ChurnFuzz, AllSchedulersAllSeeds) {
  for (runner::SchedKind kind : runner::all_schedulers()) {
    for (std::uint64_t seed : fuzz_seeds()) {
      run_churn_fuzz(kind, seed, fuzz_steps());
      if (HasFatalFailure()) return;
    }
  }
}

// -- fleet-mode fuzz: lifecycle churn under the PDES synchronizer --------------

/// Random control-plane ops (admit/destroy/pause/resume/migrate) against a
/// 3-host mixed fleet, advanced through Cluster::run_until so sharded runs
/// exercise the lookahead synchronizer between every op.  Returns the fleet
/// digest — the caller asserts repeatability and serial/sharded identity.
std::uint64_t run_fleet_churn_fuzz(std::uint64_t seed, int steps,
                                   int sim_threads) {
  SCOPED_TRACE("fleet seed=" + std::to_string(seed) +
               " sim_threads=" + std::to_string(sim_threads) +
               " (reproduce: churn_fuzz_test --seed=" + std::to_string(seed) +
               " --steps=" + std::to_string(steps) + ")");
  constexpr std::int64_t kMiB = 1024ll * 1024;
  constexpr int kHosts = 3;

  cluster::Config ccfg;
  ccfg.seed = seed;
  ccfg.sim_threads = sim_threads;
  std::vector<cluster::HostSpec> hosts(kHosts);
  hosts[1].machine = numa::MachineConfig::four_node_server();
  cluster::Cluster fleet(ccfg, hosts,
                         runner::scheduler_factory(runner::SchedKind::kCredit));
  cluster::FleetCheck check(fleet);

  struct FleetVm {
    int id = 0;
    bool paused = false;
  };
  std::vector<FleetVm> vms;
  int next_vm = 0;

  // The fuzzer's own decision stream — never the cluster's rng.
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);

  const auto admit_vm = [&] {
    cluster::VmSpec vm;
    vm.name = "fz" + std::to_string(next_vm++);
    vm.mem_bytes = rng.uniform_int(64, 256) * kMiB;
    vm.vcpus = static_cast<int>(rng.uniform_int(1, 2));
    const bool ticker = rng.chance(0.4);
    vm.workload = ticker ? runner::ticker_workload() : runner::hungry_workload();
    vm.dirty_bytes_per_s = ticker ? runner::ticker_dirty_rate(vm.mem_bytes)
                                  : runner::hungry_dirty_rate(vm.mem_bytes);
    const int id = fleet.admit(std::move(vm));
    if (id >= 0) vms.push_back({id, false});
  };

  // A resident baseline so every host has a stream from t=0.
  for (int h = 0; h < kHosts; ++h) {
    cluster::VmSpec vm;
    vm.name = "base" + std::to_string(h);
    vm.mem_bytes = 128 * kMiB;
    vm.vcpus = 2;
    vm.host = h;
    vm.workload = runner::hungry_workload();
    vm.dirty_bytes_per_s = runner::hungry_dirty_rate(vm.mem_bytes);
    const int id = fleet.admit(std::move(vm));
    EXPECT_GE(id, 0);
    vms.push_back({id, false});
  }
  fleet.start();

  for (int step = 0; step < steps; ++step) {
    // Every advance goes through the synchronizer (windowed when sharded);
    // ops run between windows with the worker threads quiescent.
    fleet.run_until(fleet.now() + sim::Time::us(rng.uniform_int(500, 4000)));
    const double op = rng.uniform();
    if (op < 0.25) {
      if (vms.size() < 9) admit_vm();
    } else if (op < 0.40) {
      if (!vms.empty()) {
        const std::size_t pick = rng.pick_index(vms.size());
        fleet.destroy(vms[pick].id);
        vms.erase(vms.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (op < 0.55) {
      if (!vms.empty()) {
        FleetVm& vm = vms[rng.pick_index(vms.size())];
        // pause() refuses mid-migration VMs; the refusal is deterministic.
        if (!vm.paused && fleet.pause(vm.id)) vm.paused = true;
      }
    } else if (op < 0.70) {
      if (!vms.empty()) {
        FleetVm& vm = vms[rng.pick_index(vms.size())];
        if (vm.paused && fleet.resume(vm.id)) vm.paused = false;
      }
    } else {
      // Cross-host live migration to a random destination; same-host and
      // mid-flight requests are refused, also deterministically.
      if (!vms.empty()) {
        const FleetVm& vm = vms[rng.pick_index(vms.size())];
        fleet.migrate(vm.id, static_cast<int>(rng.uniform_int(0, kHosts - 1)));
      }
    }
  }

  // Teardown: destroy the survivors, drain in-flight migrations, sweep.
  for (const FleetVm& vm : vms) fleet.destroy(vm.id);
  vms.clear();
  fleet.run_until(fleet.now() + sim::Time::ms(50));
  EXPECT_EQ(check.total_violations(), 0u)
      << "fleet invariants violated under churn";
  return fleet.fleet_digest();
}

TEST(FleetChurnFuzz, ShardedMatchesSerialAndRepeats) {
  const int steps = g_smoke ? (fuzz_steps() / 2) : fuzz_steps();
  for (std::uint64_t seed : fuzz_seeds()) {
    const std::uint64_t serial = run_fleet_churn_fuzz(seed, steps, 1);
    const std::uint64_t serial2 = run_fleet_churn_fuzz(seed, steps, 1);
    const std::uint64_t sharded = run_fleet_churn_fuzz(seed, steps, 3);
    EXPECT_EQ(serial, serial2) << "serial fleet fuzz is not reproducible";
    EXPECT_EQ(sharded, serial)
        << "PDES fleet digest diverged from serial: "
        << trace::digest_hex(sharded) << " vs " << trace::digest_hex(serial)
        << " — see docs/PDES.md for the divergence debugging workflow";
    if (HasFatalFailure()) return;
  }
}

// -- open-loop serving fuzz: rate/SLO churn around live traffic ----------------

/// Random serving-plane ops — open-loop rate changes (including parking at
/// zero and reviving), SLO-threshold pokes, and batch-VM lifecycle churn —
/// against a 3-host fleet of KV-server VMs absorbing live Poisson traffic.
/// Every advance goes through Cluster::run_until, so sharded runs couple
/// the arrival events at the synchronizer like the scenario path does.
/// Returns a digest folding the fleet trace with every server's latency
/// histogram, SLO count, and served total — the caller asserts exact
/// repeatability and serial/sharded identity over ALL of it.
std::uint64_t run_serving_churn_fuzz(std::uint64_t seed, int steps,
                                     int sim_threads, bool lazy = true) {
  SCOPED_TRACE("serving seed=" + std::to_string(seed) +
               " sim_threads=" + std::to_string(sim_threads) +
               " lazy=" + std::to_string(lazy) +
               " (reproduce: churn_fuzz_test --seed=" + std::to_string(seed) +
               " --steps=" + std::to_string(steps) + ")");
  constexpr std::int64_t kMiB = 1024ll * 1024;
  constexpr int kHosts = 3;

  cluster::Config ccfg;
  ccfg.seed = seed;
  ccfg.sim_threads = sim_threads;
  std::vector<cluster::HostSpec> hosts(kHosts);
  hosts[1].machine = numa::MachineConfig::four_node_server();
  cluster::Cluster fleet(ccfg, hosts,
                         runner::scheduler_factory(runner::SchedKind::kCredit));
  cluster::FleetCheck check(fleet);

  // One pinned KV-server VM per host (no cluster workload binding, so the
  // control plane treats them as unmovable, like the scenario path does).
  std::vector<std::unique_ptr<wl::RequestServer>> servers;
  for (int h = 0; h < kHosts; ++h) {
    cluster::VmSpec vm;
    vm.name = "kv" + std::to_string(h);
    // The memcached worker profile allocates a 512 MB region per worker,
    // so the domain must cover workers x 512 MB plus headroom.
    vm.mem_bytes = 2048 * kMiB;
    vm.vcpus = 2;
    vm.host = h;
    const int id = fleet.admit(std::move(vm));
    EXPECT_GE(id, 0);
    wl::RequestServer::Config kcfg;
    kcfg.workers = 2;
    kcfg.instr_per_request = 120e3;
    kcfg.max_batch = 16;
    kcfg.name = "kv" + std::to_string(h) + ":kv";
    const auto vcpus = domain_vcpus(*fleet.domain_of(id));
    servers.push_back(std::make_unique<wl::RequestServer>(
        fleet.host(fleet.host_of(id)), *fleet.domain_of(id), kcfg, vcpus));
    servers.back()->set_slo_threshold(0.002);
  }
  std::vector<wl::RequestServer*> targets;
  for (const auto& s : servers) targets.push_back(s.get());

  // Arrivals ride the control engine, like the ChurnDriver's events.
  wl::OpenLoopClient::Config ocfg;
  ocfg.rps = 15000.0;
  ocfg.seed = seed;
  ocfg.lazy = lazy;
  // A small block makes the fuzzer's rate pokes land mid-block nearly every
  // time, hammering the lazy commit/retract rule under full lifecycle churn.
  ocfg.block = 8;
  wl::OpenLoopClient client(fleet.engine(), ocfg, std::move(targets));

  struct FleetVm {
    int id = 0;
    bool paused = false;
  };
  std::vector<FleetVm> vms;
  int next_vm = 0;

  // The fuzzer's own decision stream — never the cluster's or client's rng.
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x452821e638d01377ull);

  const auto admit_vm = [&] {
    cluster::VmSpec vm;
    vm.name = "fz" + std::to_string(next_vm++);
    vm.mem_bytes = rng.uniform_int(64, 192) * kMiB;
    vm.vcpus = static_cast<int>(rng.uniform_int(1, 2));
    const bool ticker = rng.chance(0.4);
    vm.workload = ticker ? runner::ticker_workload() : runner::hungry_workload();
    vm.dirty_bytes_per_s = ticker ? runner::ticker_dirty_rate(vm.mem_bytes)
                                  : runner::hungry_dirty_rate(vm.mem_bytes);
    const int id = fleet.admit(std::move(vm));
    if (id >= 0) vms.push_back({id, false});
  };

  fleet.start();
  client.start();

  for (int step = 0; step < steps; ++step) {
    // Ops run between synchronizer windows with worker threads quiescent.
    fleet.run_until(fleet.now() + sim::Time::us(rng.uniform_int(500, 4000)));
    const double op = rng.uniform();
    if (op < 0.18) {
      if (vms.size() < 6) admit_vm();
    } else if (op < 0.32) {
      if (!vms.empty()) {
        const std::size_t pick = rng.pick_index(vms.size());
        fleet.destroy(vms[pick].id);
        vms.erase(vms.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (op < 0.44) {
      if (!vms.empty()) {
        FleetVm& vm = vms[rng.pick_index(vms.size())];
        if (!vm.paused && fleet.pause(vm.id)) vm.paused = true;
      }
    } else if (op < 0.56) {
      if (!vms.empty()) {
        FleetVm& vm = vms[rng.pick_index(vms.size())];
        if (vm.paused && fleet.resume(vm.id)) vm.paused = false;
      }
    } else if (op < 0.72) {
      // Rate churn: park the arrival chain outright one time in four,
      // otherwise jump anywhere from a trickle to past fleet capacity.
      client.set_rate(rng.chance(0.25) ? 0.0 : rng.uniform(2000.0, 40000.0));
    } else if (op < 0.84) {
      // SLO-threshold pokes change which sojourns count as violations —
      // bookkeeping only, so determinism must be unaffected.
      servers[rng.pick_index(servers.size())]->set_slo_threshold(
          rng.uniform(0.0005, 0.005));
    } else {
      if (!vms.empty()) {
        const FleetVm& vm = vms[rng.pick_index(vms.size())];
        fleet.migrate(vm.id, static_cast<int>(rng.uniform_int(0, kHosts - 1)));
      }
    }
  }

  // Teardown: stop the traffic, destroy the churn VMs, drain, sweep.
  client.stop();
  for (const FleetVm& vm : vms) fleet.destroy(vm.id);
  vms.clear();
  fleet.run_until(fleet.now() + sim::Time::ms(50));
  EXPECT_EQ(check.total_violations(), 0u)
      << "fleet invariants violated under serving churn";
  EXPECT_GT(client.issued(), 0u) << "the fuzz run must carry real traffic";

  std::uint64_t fold = fleet.fleet_digest();
  const auto mix = [&fold](std::uint64_t v) {
    fold = (fold ^ v) * 0x100000001b3ull;
  };
  for (const auto& s : servers) {
    mix(s->latency_hist().digest());
    mix(s->slo_violations());
    mix(s->served());
  }
  mix(client.issued());
  return fold;
}

TEST(ServingChurnFuzz, ShardedMatchesSerialAndRepeats) {
  const int steps = g_smoke ? (fuzz_steps() / 2) : fuzz_steps();
  for (std::uint64_t seed : fuzz_seeds()) {
    const std::uint64_t serial = run_serving_churn_fuzz(seed, steps, 1);
    const std::uint64_t serial2 = run_serving_churn_fuzz(seed, steps, 1);
    const std::uint64_t sharded = run_serving_churn_fuzz(seed, steps, 3);
    const std::uint64_t eager = run_serving_churn_fuzz(seed, steps, 1, false);
    EXPECT_EQ(serial, serial2) << "serial serving fuzz is not reproducible";
    EXPECT_EQ(sharded, serial)
        << "PDES serving digest diverged from serial: "
        << trace::digest_hex(sharded) << " vs " << trace::digest_hex(serial)
        << " — see docs/PDES.md for the divergence debugging workflow";
    EXPECT_EQ(eager, serial)
        << "lazy arrival delivery diverged from the per-arrival event path: "
        << trace::digest_hex(eager) << " vs " << trace::digest_hex(serial)
        << " — see docs/SERVING.md (lazy arrival delivery)";
    if (HasFatalFailure()) return;
  }
}

// -- targeted lifecycle regressions -------------------------------------------

/// Destroying a domain whose VCPUs are actively running must settle their
/// partial segments, free the PCPUs, and return all memory.
TEST(Lifecycle, DestroyWhileRunning) {
  auto hv = make_credit_hv(7);
  check::InvariantChecker checker;
  checker.attach(*hv);

  auto& mm = hv->memory_manager();
  std::vector<std::int64_t> free_before;
  for (int n = 0; n < mm.num_nodes(); ++n) {
    free_before.push_back(mm.free_chunks(n));
  }

  hv::Domain& dom = hv->create_domain("victim", 2 * kTestGB, 4,
                                      numa::PlacementPolicy::kFillFirst);
  std::vector<std::unique_ptr<FakeWork>> works;
  for (auto* v : domain_vcpus(dom)) {
    works.push_back(std::make_unique<FakeWork>());
    works.back()->total_instructions = 1e18;
    hv->bind_work(*v, *works.back());
  }
  hv->start();
  for (auto* v : domain_vcpus(dom)) hv->wake(*v);
  hv->engine().run_until(sim::Time::ms(20));  // everyone is mid-segment now

  hv->destroy_domain(dom);
  EXPECT_TRUE(hv->all_vcpus().empty());
  EXPECT_EQ(hv->find_domain(1), nullptr);
  for (int n = 0; n < mm.num_nodes(); ++n) {
    EXPECT_EQ(mm.free_chunks(n), free_before[static_cast<std::size_t>(n)])
        << "node " << n << " did not get its chunks back";
  }

  // The machine must keep running cleanly (ticks, accounting) afterwards.
  hv->engine().run_until(sim::Time::ms(100));
  checker.check_now();
  checker.expect_ok();
  checker.detach();
}

/// Destroying a domain while one of its VCPUs is in the migrate_to_node
/// transient (vcpu.pcpu retargeted, still current elsewhere) must find the
/// real host via the current pointers, not vcpu.pcpu.
TEST(Lifecycle, DestroyMidMigration) {
  auto hv = make_credit_hv(11);
  check::InvariantChecker checker;
  checker.attach(*hv);

  hv::Domain& dom = hv->create_domain("mig", kTestGB, 2,
                                      numa::PlacementPolicy::kFillFirst);
  std::vector<std::unique_ptr<FakeWork>> works;
  for (auto* v : domain_vcpus(dom)) {
    works.push_back(std::make_unique<FakeWork>());
    works.back()->total_instructions = 1e18;
    hv->bind_work(*v, *works.back());
  }
  hv->start();
  for (auto* v : domain_vcpus(dom)) hv->wake(*v);
  hv->engine().run_until(sim::Time::ms(5));

  hv::Vcpu& v0 = dom.vcpu(0);
  ASSERT_EQ(v0.state, hv::VcpuState::kRunning);
  const numa::NodeId away = 1 - hv->topology().node_of(v0.pcpu);
  hv->migrate_to_node(v0, away);  // retargets v0.pcpu, preemption is async

  // Destroy immediately — v0.pcpu now disagrees with the hosting PCPU.
  hv->destroy_domain(dom);
  for (hv::Pcpu& p : hv->pcpus()) {
    EXPECT_EQ(p.current, nullptr) << "pcpu " << p.id << " still hosts a ghost";
    EXPECT_EQ(p.queue.size(), 0u);
  }
  hv->engine().run_until(sim::Time::ms(60));
  checker.check_now();
  checker.expect_ok();
  checker.detach();
}

/// Advance in 100 us steps until `vcpu` blocks (at most 50 ms): a timed
/// block lasts a few ms, far below run_until's poll step.
void run_until_blocked(hv::Hypervisor& hv, const hv::Vcpu& vcpu) {
  const sim::Time horizon = hv.now() + sim::Time::ms(50);
  while (vcpu.state != hv::VcpuState::kBlocked && hv.now() < horizon) {
    hv.engine().run_until(hv.now() + sim::Time::us(100));
  }
}

/// A timed wake landing while the VCPU is paused must be latched and
/// replayed on resume — not lost, and not delivered early.
TEST(Lifecycle, PauseLatchesTimedWake) {
  auto hv = make_credit_hv(3);
  hv::Domain& dom = hv->create_domain("sleeper", kTestGB, 1,
                                      numa::PlacementPolicy::kFillFirst);
  FakeWork work;
  work.total_instructions = 1e18;
  work.burst = 1e6;
  work.block_for = sim::Time::ms(2);  // kBlockTimed
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  // Let it run into its first timed block.
  run_until_blocked(*hv, dom.vcpu(0));
  ASSERT_EQ(dom.vcpu(0).state, hv::VcpuState::kBlocked);

  hv->pause_domain(dom);
  EXPECT_EQ(dom.vcpu(0).state, hv::VcpuState::kPaused);
  // The timed wake fires during the pause: must latch, not run.
  hv->engine().run_until(hv->now() + sim::Time::ms(10));
  EXPECT_EQ(dom.vcpu(0).state, hv::VcpuState::kPaused);
  EXPECT_TRUE(dom.vcpu(0).wake_pending);

  hv->resume_domain(dom);
  runner::run_until(*hv, [&] { return work.executed > 1.5e6; },
                    hv->now() + sim::Time::ms(50));
  EXPECT_GT(work.executed, 1.5e6) << "latched wake was not replayed";
}

/// Pausing a runnable VCPU dequeues it; resume makes it runnable again
/// without an external wake (the latched-wake path).
TEST(Lifecycle, PauseRunnableThenResume) {
  auto hv = make_credit_hv(5);
  hv::Domain& dom = hv->create_domain("held", kTestGB, 10,
                                      numa::PlacementPolicy::kFillFirst);
  std::vector<std::unique_ptr<FakeWork>> works;
  for (auto* v : domain_vcpus(dom)) {
    works.push_back(std::make_unique<FakeWork>());
    works.back()->total_instructions = 1e18;
    hv->bind_work(*v, *works.back());
  }
  hv->start();
  for (auto* v : domain_vcpus(dom)) hv->wake(*v);
  hv->engine().run_until(sim::Time::ms(3));

  hv->pause_domain(dom);
  for (auto* v : domain_vcpus(dom)) {
    EXPECT_EQ(v->state, hv::VcpuState::kPaused);
    EXPECT_FALSE(v->in_runqueue);
  }
  for (hv::Pcpu& p : hv->pcpus()) EXPECT_EQ(p.current, nullptr);

  const double executed_at_pause = [&] {
    double total = 0.0;
    for (const auto& w : works) total += w->executed;
    return total;
  }();
  hv->engine().run_until(hv->now() + sim::Time::ms(20));
  double executed_after = 0.0;
  for (const auto& w : works) executed_after += w->executed;
  EXPECT_EQ(executed_after, executed_at_pause) << "paused domain kept running";

  hv->resume_domain(dom);
  // Run past a full slice (30 ms): executed instructions are only credited
  // when a segment settles, so a shorter window would observe nothing even
  // on a healthy resume.
  hv->engine().run_until(hv->now() + sim::Time::ms(60));
  int running = 0;
  for (auto* v : domain_vcpus(dom)) {
    running += v->state == hv::VcpuState::kRunning ? 1 : 0;
  }
  EXPECT_EQ(running, static_cast<int>(hv->pcpus().size()))
      << "resume did not refill the machine";
  executed_after = 0.0;
  for (const auto& w : works) executed_after += w->executed;
  EXPECT_GT(executed_after, executed_at_pause) << "resume did not restart";
}

/// destroy_domain on a domain with a pending timed wake: the wake timer is
/// cancelled, so no event ever fires against the dead VCPU (the checker's
/// on_trace_event rule would catch it).
TEST(Lifecycle, RetireCancelsPendingTimedWake) {
  auto hv = make_credit_hv(13);
  check::InvariantChecker checker;
  checker.attach(*hv);

  hv::Domain& dom = hv->create_domain("timer", kTestGB, 1,
                                      numa::PlacementPolicy::kFillFirst);
  FakeWork work;
  work.total_instructions = 1e18;
  work.burst = 1e6;
  work.block_for = sim::Time::ms(5);
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  run_until_blocked(*hv, dom.vcpu(0));
  ASSERT_EQ(dom.vcpu(0).state, hv::VcpuState::kBlocked);

  hv->destroy_domain(dom);
  // Run past when the timed wake would have fired; the checker flags any
  // event against the retired id.
  hv->engine().run_until(hv->now() + sim::Time::ms(20));
  checker.check_now();
  checker.expect_ok();
  checker.detach();
}

/// Global VCPU ids are never reused across destroy/create cycles.
TEST(Lifecycle, VcpuIdsNeverReused) {
  auto hv = make_credit_hv(17);
  hv::Domain& a = hv->create_domain("a", kTestGB, 3,
                                    numa::PlacementPolicy::kFillFirst);
  const int last_a = a.vcpu(2).id();
  hv->destroy_domain(a);
  hv::Domain& b = hv->create_domain("b", kTestGB, 3,
                                    numa::PlacementPolicy::kFillFirst);
  EXPECT_GT(b.vcpu(0).id(), last_a)
      << "destroy/create recycled a global VCPU id";
  EXPECT_EQ(hv->find_domain(b.id()), &b);
}

}  // namespace
}  // namespace vprobe::test

int main(int argc, char** argv) {
  // Parse our flags first and strip them, then hand the rest to gtest.
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      vprobe::test::g_smoke = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      vprobe::test::g_seed_override =
          std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--steps=", 0) == 0) {
      vprobe::test::g_steps =
          static_cast<int>(std::strtol(arg.c_str() + 8, nullptr, 10));
    } else {
      rest.push_back(argv[i]);
    }
  }
  int rest_argc = static_cast<int>(rest.size());
  // gtest shifts argv[0..argc] (terminator included) when it strips its
  // own flags, so the array must end in a null like a real argv.
  rest.push_back(nullptr);
  ::testing::InitGoogleTest(&rest_argc, rest.data());
  return RUN_ALL_TESTS();
}
