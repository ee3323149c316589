// Tests for the runtime invariant checker (src/check).
//
// Two directions: clean runs across schedulers must produce zero
// violations, and deliberately injected bugs — a sign-flipped accounting
// pass, a blocked VCPU smuggled onto a run queue, a corrupted priority, a
// double-released memory chunk, engine events out of (when, seq) order, and
// one corruption per rule in CheckInjection.EveryRuleReportsItsMessage —
// must each be caught.  The injection tests are the checker's own
// regression suite: if they stop firing, the checker has gone blind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "runner/experiment.hpp"
#include "runner/scenario_file.hpp"
#include "scenario_helpers.hpp"
#include "test_helpers.hpp"
#include "workload/spec.hpp"

namespace vprobe::numa {

/// Breaks the memory pool's bookkeeping behind its back.
struct MemoryManagerFaults {
  static void set_free(MemoryManager& mm, NodeId node, std::int64_t chunks) {
    mm.free_.at(static_cast<std::size_t>(node)) = chunks;
  }
};

}  // namespace vprobe::numa

namespace vprobe {
namespace {

using test::FakeWork;
using test::MiniScenario;

// --------------------------------------------------------- clean runs ----

class CheckCleanRun : public ::testing::TestWithParam<runner::SchedKind> {};

TEST_P(CheckCleanRun, NoViolations) {
  MiniScenario sc = test::make_mini_scenario(GetParam(), 21);
  check::InvariantChecker checker;  // destroyed (detached) before sc.hv
  checker.attach(*sc.hv);
  test::run_mini(sc);
  checker.expect_ok();  // prints the violations on failure
  EXPECT_TRUE(checker.ok());
  // The checker must actually have observed the run.
  EXPECT_GT(checker.events_seen(), 0u);
  EXPECT_GT(checker.checks_run(), 0u);
  checker.check_now();
  EXPECT_TRUE(checker.ok());
}

/// gtest parameter names must be alphanumeric ("VCPU-P" is not).
std::string sched_test_name(runner::SchedKind kind) {
  std::string name = to_string(kind);
  std::erase_if(name, [](char c) { return !std::isalnum(
      static_cast<unsigned char>(c)); });
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, CheckCleanRun,
                         ::testing::ValuesIn(runner::all_schedulers().begin(),
                                             runner::all_schedulers().end()),
                         [](const auto& info) {
                           return sched_test_name(info.param);
                         });

TEST(CheckDetach, DetachStopsObservation) {
  check::InvariantChecker checker;
  MiniScenario sc = test::make_mini_scenario(runner::SchedKind::kCredit, 3);
  checker.attach(*sc.hv);
  checker.detach();
  test::run_mini(sc);
  EXPECT_EQ(checker.events_seen(), 0u);
  EXPECT_EQ(checker.checks_run(), 0u);
}

// A `policy=first_touch` VM from a scenario file: run end to end, then the
// same VM under the checker with its VCPU pinned to node 1.  Every chunk
// the thread touches through next_burst must be homed on the toucher's node.
TEST(CheckFirstTouch, ScenarioChunksAreHomedOnTheTouchersNode) {
  const runner::ScenarioSpec spec = runner::parse_scenario(
      "machine xeon_e5620\n"
      "seed 5\n"
      "scale 0.002\n"
      "vm name=VM1 mem=2G vcpus=2 policy=first_touch\n"
      "app vm=VM1 kind=spec profile=soplex count=2 measure=1\n");
  const runner::ScenarioSpec::VmSpec& vm = spec.vms.front();
  ASSERT_EQ(vm.policy, numa::PlacementPolicy::kFirstTouch);
  EXPECT_TRUE(runner::run_scenario(spec).completed);

  auto hv = test::make_credit_hv(spec.seed);
  check::InvariantChecker checker;  // destroyed (detached) before hv
  checker.attach(*hv);
  hv::Domain& dom =
      hv->create_domain(vm.name, vm.mem_bytes, 1, vm.policy, vm.preferred);
  const numa::NodeId toucher = 1;
  dom.vcpu(0).pin_to(hv->topology().pcpus_of(toucher).front());
  EXPECT_EQ(dom.memory().node_census(), (std::vector<std::int64_t>{0, 0}))
      << "first-touch memory starts homeless";
  wl::SpecApp app(*hv, dom, dom.vcpu(0), spec.apps.front().profile, spec.scale);
  hv->start();
  app.start();
  hv->engine().run_until(sim::Time::sec(60));
  ASSERT_TRUE(app.finished());
  const std::vector<std::int64_t> census = dom.memory().node_census();
  EXPECT_EQ(census[0], 0) << "a chunk was homed away from its toucher";
  EXPECT_GT(census[toucher], 0) << "nothing was touched";
  checker.expect_ok();
}

// ---------------------------------------------------- injected bugs ----

/// Credit scheduler whose accounting pass has its sign flipped: it debits
/// instead of granting and leaves priorities stale.  The conservation hook
/// must catch both the debit and the resulting UNDER-with-debt VCPUs.
class SignFlippedCreditScheduler : public hv::CreditScheduler {
 public:
  void accounting() override {
    for (hv::Vcpu* v : hv_->all_vcpus()) {
      if (!v->active()) continue;
      v->credits -= 50.0;  // the bug: subtract where Xen grants
      v->credit_active = false;
    }
  }
};

TEST(CheckInjection, SignFlippedAccountingIsCaught) {
  hv::Hypervisor::Config cfg;
  cfg.seed = 5;
  auto hv = std::make_unique<hv::Hypervisor>(
      cfg, std::make_unique<SignFlippedCreditScheduler>());
  check::InvariantChecker checker;
  checker.attach(*hv);

  hv::Domain& dom = hv->create_domain("VM1", test::kTestGB, 4,
                                      numa::PlacementPolicy::kFillFirst);
  std::vector<std::unique_ptr<FakeWork>> works;
  for (auto* vcpu : test::domain_vcpus(dom)) {
    works.push_back(std::make_unique<FakeWork>());
    hv->bind_work(*vcpu, *works.back());
    hv->wake(*vcpu);
  }
  hv->start();
  hv->engine().run_until(sim::Time::ms(100));  // a few accounting passes

  ASSERT_FALSE(checker.ok());
  bool mentions_credit = false;
  for (const auto& v : checker.violations()) {
    if (v.what.find("credit") != std::string::npos) mentions_credit = true;
  }
  EXPECT_TRUE(mentions_credit) << checker.violations().front().what;
  EXPECT_THROW(checker.expect_ok(), std::runtime_error);
}

TEST(CheckInjection, BlockedVcpuOnRunQueueIsCaught) {
  auto hv = test::make_credit_hv(7);
  check::InvariantChecker checker;
  checker.attach(*hv);

  hv::Domain& dom = hv->create_domain("VM1", test::kTestGB, 2,
                                      numa::PlacementPolicy::kFillFirst);
  checker.check_now();
  ASSERT_TRUE(checker.ok());

  // The bug: enqueue a VCPU that is still Blocked.
  hv::Vcpu& victim = dom.vcpu(0);
  victim.pcpu = 0;
  hv->pcpu(0).queue.insert(victim);

  checker.check_now();
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().what.find("runqueue"),
            std::string::npos);
}

TEST(CheckInjection, StaleOccupancyBitIsCaught) {
  numa::PcpuMask detached(8);  // outlives hv: pcpu 0's queue points into it
  auto hv = test::make_credit_hv(7);
  check::InvariantChecker checker;
  checker.attach(*hv);

  hv::Domain& dom = hv->create_domain("VM1", test::kTestGB, 2,
                                      numa::PlacementPolicy::kFillFirst);
  // The bug: a run queue that no longer mirrors its emptiness into the
  // hypervisor's occupancy set, so steals would never see its work.
  hv->pcpu(0).queue.bind_occupancy(detached, 0);
  hv::Vcpu& v = dom.vcpu(0);
  v.pcpu = 0;
  v.state = hv::VcpuState::kRunnable;
  hv->pcpu(0).queue.insert(v);
  ASSERT_TRUE(detached.test(0));

  checker.check_now();
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().what.find("occupancy bit is clear"),
            std::string::npos)
      << checker.violations().front().what;
}

TEST(CheckInjection, PriorityCreditSignMismatchIsCaught) {
  auto hv = test::make_credit_hv(7);
  check::InvariantChecker checker;
  checker.attach(*hv);

  hv::Domain& dom = hv->create_domain("VM1", test::kTestGB, 2,
                                      numa::PlacementPolicy::kFillFirst);
  // The bug: deep debt while still marked UNDER.
  dom.vcpu(0).credits = -120.0;
  dom.vcpu(0).priority = hv::CreditPrio::kUnder;

  checker.check_now();
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().what.find("credit"),
            std::string::npos);
}

TEST(CheckInjection, DoubleReleasedChunkIsCaught) {
  auto hv = test::make_credit_hv(7);
  check::InvariantChecker checker;
  checker.attach(*hv);

  const int vm = hv->create_domain("VM1", test::kTestGB, 2,
                                   numa::PlacementPolicy::kFillFirst).id();
  checker.check_now();
  ASSERT_TRUE(checker.ok());

  // The bug: a chunk freed twice — the pool now disagrees with the homes
  // the domain's VmMemory still records.
  hv->memory_manager().release_chunk(0);

  checker.check_now();
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().what.find("memory"),
            std::string::npos);

  // A build with asserts stops the same bug on its own: destroying the VM
  // hands node 0 one chunk more than it owns, and release_chunk's capacity
  // assert kills the process.  Without asserts the destroy just runs.
  EXPECT_DEBUG_DEATH(hv->destroy_domain(vm), "capacity_");
#if !defined(NDEBUG)
  // The death ran in a child: this process still holds the doubly released
  // chunk, so take it back before its own teardown trips the same assert.
  hv->memory_manager().reserve_chunk(0);
#endif
}

TEST(CheckInjection, EngineOrderBreaksAreCaught) {
  // The engine promises (when, seq) order; feed the hook a time that goes
  // backwards, then an equal time with a lower seq, as a broken heap would.
  check::InvariantChecker checker;
  checker.on_event(sim::Time::ns(2000), 7);
  checker.on_event(sim::Time::ns(2000), 8);  // in order: no violation
  ASSERT_TRUE(checker.ok());
  checker.on_event(sim::Time::ns(1000), 9);
  checker.on_event(sim::Time::ns(1000), 4);
  ASSERT_EQ(checker.violations().size(), 2u);
  EXPECT_EQ(checker.violations()[0].what,
            "engine: event time went backwards (1000 ns after 2000 ns)");
  EXPECT_EQ(checker.violations()[1].what,
            "engine: FIFO order broken at 1000 ns (seq 4 after seq 9)");
  EXPECT_EQ(checker.events_seen(), 4u);
  EXPECT_THROW(checker.expect_ok(), std::runtime_error);
}

// One corruption per rule, each asserting the message its rule reports.
// The rig is an unstarted Credit machine with one 8-VCPU domain, all
// Blocked; each row breaks one thing through VCPU 0, then runs the sweep or
// hook that judges it.
struct CorruptRig {
  numa::PcpuMask detached{8};  // outlives hv: a rebound queue points into it
  std::unique_ptr<hv::Hypervisor> hv = test::make_credit_hv(7);
  hv::Domain& dom = hv->create_domain("VM1", test::kTestGB, 8,
                                      numa::PlacementPolicy::kFillFirst);
  check::InvariantChecker checker;  // destroyed (detached) before hv

  CorruptRig() { v0().pcpu = 0; }  // not its boot PCPU: messages name pcpu 0

  hv::Vcpu& v0() { return dom.vcpu(0); }
  /// Put v0 on pcpu `p`'s queue in `state`.
  void enqueue(int p, hv::VcpuState state) {
    v0().state = state;
    hv->pcpu(p).queue.insert(v0());
  }
  /// Make v0 current on pcpu `p` in `state`.
  void make_current(int p, hv::VcpuState state) {
    v0().state = state;
    hv->pcpu(p).current = &v0();
  }
  /// The checker's view of a destroy that never happened: VM1's VCPUs are
  /// retired, while their storage (and VM1's memory) stays alive.
  void retire_dom() { checker.before_domain_destroy(*hv, dom); }
};

struct CorruptionRow {
  const char* name;
  void (*corrupt)(CorruptRig&);
  const char* message;  ///< one reported violation starts with this
};

const CorruptionRow kCorruptions[] = {
    {"occupancy bit set on an empty queue",
     [](CorruptRig& r) {
       r.enqueue(0, hv::VcpuState::kRunnable);
       r.hv->pcpu(0).queue.bind_occupancy(r.detached, 0);
       r.hv->pcpu(0).queue.remove(r.v0());
       r.v0().state = hv::VcpuState::kBlocked;
       r.checker.check_now();
     },
     "runqueue: pcpu 0's occupancy bit is set but its queue holds 0 VCPU(s)"},
    {"blocked VCPU queued",
     [](CorruptRig& r) {
       r.enqueue(0, hv::VcpuState::kBlocked);
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state blocked, pcpu 0) is queued on pcpu 0 but "
     "is not Runnable"},
    {"queued on a pcpu it does not record",
     [](CorruptRig& r) {
       r.v0().pcpu = 1;
       r.enqueue(0, hv::VcpuState::kRunnable);
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state runnable, pcpu 1) sits on pcpu 0's queue "
     "but records pcpu 1"},
    {"queued with in_runqueue clear",
     [](CorruptRig& r) {
       r.enqueue(0, hv::VcpuState::kRunnable);
       r.v0().in_runqueue = false;
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state runnable, pcpu 0) is queued but "
     "in_runqueue is false"},
    {"queued outside the affinity mask",
     [](CorruptRig& r) {
       r.v0().pin_to(1);
       r.enqueue(0, hv::VcpuState::kRunnable);
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state runnable, pcpu 0) is queued on pcpu 0 "
     "outside its affinity mask"},
    {"current on two pcpus",
     [](CorruptRig& r) {
       r.make_current(0, hv::VcpuState::kRunning);
       r.hv->pcpu(1).current = &r.v0();
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state running, pcpu 0) is current on two PCPUs"},
    {"current but blocked",
     [](CorruptRig& r) {
       r.make_current(0, hv::VcpuState::kBlocked);
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state blocked, pcpu 0) is current on pcpu 0 but "
     "is not Running"},
    {"running outside the affinity mask",
     [](CorruptRig& r) {
       r.v0().pin_to(1);
       r.make_current(0, hv::VcpuState::kRunning);
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state running, pcpu 0) runs on pcpu 0 outside "
     "its affinity mask"},
    {"running, retargeted to no pcpu",
     [](CorruptRig& r) {
       r.make_current(0, hv::VcpuState::kRunning);
       r.v0().pcpu = 99;
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state running, pcpu 99) running on pcpu 0 is "
     "retargeted to invalid pcpu 99"},
    {"queued on two pcpus",
     [](CorruptRig& r) {
       r.enqueue(0, hv::VcpuState::kRunnable);
       r.v0().in_runqueue = false;  // lets insert() take it a second time
       r.hv->pcpu(1).queue.insert(r.v0());
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state runnable, pcpu 0) appears on 2 run queues"},
    {"runnable on no queue",
     [](CorruptRig& r) {
       r.v0().state = hv::VcpuState::kRunnable;
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state runnable, pcpu 0) is Runnable but on 0 run "
     "queues"},
    {"running on no pcpu",
     [](CorruptRig& r) {
       r.v0().state = hv::VcpuState::kRunning;
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state running, pcpu 0) is Running but is not "
     "current on any pcpu"},
    {"running and queued",
     [](CorruptRig& r) {
       r.enqueue(1, hv::VcpuState::kRunning);
       r.hv->pcpu(0).current = &r.v0();
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state running, pcpu 0) is Running but also "
     "queued"},
    {"blocked on a queue",
     [](CorruptRig& r) {
       r.enqueue(0, hv::VcpuState::kBlocked);
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state blocked, pcpu 0) is blocked but sits on a "
     "run queue"},
    {"blocked with in_runqueue set",
     [](CorruptRig& r) {
       r.v0().in_runqueue = true;
       r.checker.check_now();
     },
     "runqueue: VM1.v0 (vcpu 0, state blocked, pcpu 0) is blocked but "
     "in_runqueue is true"},
    {"retired VCPU queued",
     [](CorruptRig& r) {
       r.retire_dom();
       r.enqueue(0, hv::VcpuState::kRunnable);
       r.checker.check_now();
     },
     "teardown: pcpu 0's run queue holds a retired VCPU"},
    {"retired VCPU running",
     [](CorruptRig& r) {
       r.retire_dom();
       r.make_current(0, hv::VcpuState::kRunning);
       r.checker.check_now();
     },
     "teardown: pcpu 0 is running a retired VCPU"},
    {"destroy frees nothing",
     [](CorruptRig& r) {
       r.retire_dom();
       r.checker.after_domain_destroy(*r.hv);
     },
     "teardown: node 0 freed 0 chunks on domain destroy but the domain homed 256 "
     "there (freed bytes must return to their origin node)"},
    {"event against a retired VCPU",
     [](CorruptRig& r) {
       r.retire_dom();
       r.checker.after_domain_destroy(*r.hv);
       r.hv->emit(trace::EventKind::kWake, r.v0().id(), 0);
     },
     "teardown: event wake fired against retired vcpu 0"},
    {"accounting leaves credits above the cap",
     [](CorruptRig& r) {
       r.checker.before_accounting(*r.hv);
       r.v0().credits = 400.0;
       r.checker.after_accounting(*r.hv);
     },
     "credit: accounting left VM1.v0 (vcpu 0, state blocked, pcpu 0) with 400 "
     "credits, outside [-300, 300]"},
    {"accounting grants more than the machine burned",
     [](CorruptRig& r) {
       for (auto* v : test::domain_vcpus(r.dom)) v->credits = -300.0;
       r.checker.before_accounting(*r.hv);
       for (auto* v : test::domain_vcpus(r.dom)) v->credits = 300.0;
       r.checker.after_accounting(*r.hv);
     },
     // 8 VCPUs x 600 granted; budget 100 credits/tick x 3 ticks x 8 PCPUs.
     "credit: accounting granted 4800 credits, more than the machine budget 2400"},
    {"OVER with credits",
     [](CorruptRig& r) {
       r.v0().priority = hv::CreditPrio::kOver;
       r.v0().credits = 50.0;
       r.checker.check_now();
     },
     "credit: VM1.v0 (vcpu 0, state blocked, pcpu 0) is OVER with 50 credits "
     "(should be UNDER)"},
    {"pool holds more than its capacity",
     [](CorruptRig& r) {
       numa::MemoryManager& mm = r.hv->memory_manager();
       const std::int64_t free = mm.free_chunks(1);
       numa::MemoryManagerFaults::set_free(mm, 1, mm.capacity_chunks(1) + 1);
       r.checker.check_now();
       numa::MemoryManagerFaults::set_free(mm, 1, free);  // VM1's teardown
     },
     "memory: node 1 pool corrupt (free 3073, used -1, capacity 3072) — leak or "
     "double-free"},
};

TEST(CheckInjection, EveryRuleReportsItsMessage) {
  for (const CorruptionRow& row : kCorruptions) {
    CorruptRig rig;
    rig.checker.attach(*rig.hv);
    rig.checker.check_now();
    ASSERT_TRUE(rig.checker.ok()) << row.name << ": the rig starts broken";
    row.corrupt(rig);
    const auto& found = rig.checker.violations();
    const bool reported =
        std::any_of(found.begin(), found.end(), [&](const check::Violation& v) {
          return v.what.rfind(row.message, 0) == 0;
        });
    std::string all;
    for (const auto& v : found) all += "\n  " + v.what;
    EXPECT_TRUE(reported) << row.name << ": no violation starts with \""
                          << row.message << "\"; got:" << all;
  }
}

// ------------------------------------------------------ zero overhead ----

TEST(CheckOverhead, CheckerDoesNotPerturbTheSimulation) {
  // Same scenario, same seed, with and without the checker attached: every
  // simulated quantity must be bit-identical — the checker only reads.
  MiniScenario plain = test::make_mini_scenario(runner::SchedKind::kVprobe, 9);
  test::run_mini(plain);

  MiniScenario checked = test::make_mini_scenario(runner::SchedKind::kVprobe, 9);
  check::InvariantChecker checker;  // destroyed (detached) before checked.hv
  checker.attach(*checked.hv);
  test::run_mini(checked);
  checker.expect_ok();

  EXPECT_EQ(plain.hv->total_busy_time().nanos(),
            checked.hv->total_busy_time().nanos());
  EXPECT_EQ(plain.hv->total_migrations(), checked.hv->total_migrations());
  ASSERT_EQ(plain.works.size(), checked.works.size());
  for (std::size_t i = 0; i < plain.works.size(); ++i) {
    EXPECT_EQ(plain.works[i]->executed, checked.works[i]->executed) << i;
  }
}

TEST(CheckOverhead, ChecksChargeNothingToTheOverheadLedger) {
  // Table III's overhead fraction comes from the simulated ledger; the
  // checker must not appear in it.
  runner::RunConfig cfg;
  cfg.seed = 2;
  cfg.instr_scale = 0.002;
  cfg.horizon = sim::Time::sec(300);

  stats::RunMetrics plain = runner::run_overhead_single(cfg, 1);
  cfg.checks = true;
  stats::RunMetrics checked = runner::run_overhead_single(cfg, 1);

  EXPECT_EQ(plain.overhead_fraction, checked.overhead_fraction);
  EXPECT_EQ(plain.sim_seconds, checked.sim_seconds);
  EXPECT_EQ(plain.total_mem_accesses, checked.total_mem_accesses);
}

}  // namespace
}  // namespace vprobe
