// Hypervisor mechanics tests: domain/VCPU lifecycle, run queues, execution,
// blocking/waking, the coalesced wake-up tickle, migration bookkeeping,
// overhead ledger.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hv/run_queue.hpp"
#include "test_helpers.hpp"

namespace vprobe::hv {
namespace {

using test::FakeWork;
using test::kTestGB;
using test::make_credit_hv;

// ------------------------------------------------------------ RunQueue ----

class RunQueueTest : public ::testing::Test {
 protected:
  Domain dom_{1, "d", nullptr};
  Vcpu& make(CreditPrio prio) {
    Vcpu& v = dom_.add_vcpu(next_id_++);
    v.priority = prio;
    v.state = VcpuState::kRunnable;
    return v;
  }
  int next_id_ = 0;
  RunQueue q_;
};

TEST_F(RunQueueTest, EmptyQueue) {
  EXPECT_TRUE(q_.empty());
  EXPECT_EQ(q_.front(), nullptr);
  EXPECT_EQ(q_.pop_front(), nullptr);
}

TEST_F(RunQueueTest, FifoWithinPriorityClass) {
  Vcpu& a = make(CreditPrio::kUnder);
  Vcpu& b = make(CreditPrio::kUnder);
  q_.insert(a);
  q_.insert(b);
  EXPECT_EQ(q_.pop_front(), &a);
  EXPECT_EQ(q_.pop_front(), &b);
}

TEST_F(RunQueueTest, StrongerClassGoesFirst) {
  Vcpu& over = make(CreditPrio::kOver);
  Vcpu& under = make(CreditPrio::kUnder);
  Vcpu& boost = make(CreditPrio::kBoost);
  q_.insert(over);
  q_.insert(under);
  q_.insert(boost);
  EXPECT_EQ(q_.pop_front(), &boost);
  EXPECT_EQ(q_.pop_front(), &under);
  EXPECT_EQ(q_.pop_front(), &over);
}

TEST_F(RunQueueTest, InsertSetsMembershipFlag) {
  Vcpu& a = make(CreditPrio::kUnder);
  q_.insert(a);
  EXPECT_TRUE(a.in_runqueue);
  q_.pop_front();
  EXPECT_FALSE(a.in_runqueue);
}

TEST_F(RunQueueTest, RemoveSpecific) {
  Vcpu& a = make(CreditPrio::kUnder);
  Vcpu& b = make(CreditPrio::kUnder);
  q_.insert(a);
  q_.insert(b);
  EXPECT_TRUE(q_.remove(a));
  EXPECT_FALSE(a.in_runqueue);
  EXPECT_FALSE(q_.remove(a));
  EXPECT_EQ(q_.front(), &b);
}

// ---------------------------------------------------------- Hypervisor ----

TEST(Hypervisor, RejectsNullScheduler) {
  Hypervisor::Config cfg;
  EXPECT_THROW(Hypervisor(cfg, nullptr), std::invalid_argument);
}

TEST(Hypervisor, CreateDomainAllocatesMemoryAndVcpus) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 8 * kTestGB, 4,
                                  numa::PlacementPolicy::kFillFirst, 0);
  EXPECT_EQ(dom.num_vcpus(), 4u);
  EXPECT_EQ(hv->all_vcpus().size(), 4u);
  EXPECT_GT(hv->memory_manager().used_chunks(0), 0);
  EXPECT_EQ(dom.vcpu(0).state, VcpuState::kBlocked);
}

TEST(Hypervisor, VcpuNamesIncludeDomain) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("web", 1 * kTestGB, 2,
                                  numa::PlacementPolicy::kFillFirst, 0);
  EXPECT_EQ(dom.vcpu(1).name(), "web.v1");
}

TEST(Hypervisor, RunsWorkToCompletion) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 1 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  work.total_instructions = 30e6;
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::sec(2));
  EXPECT_TRUE(work.finished);
  EXPECT_EQ(dom.vcpu(0).state, VcpuState::kDone);
  EXPECT_NEAR(work.executed, 30e6, 1.0);
}

TEST(Hypervisor, ExecutionTimeMatchesCostModel) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 1 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;                     // pure CPU: base_cpi/clock = 1/3 ns per instr
  work.total_instructions = 3e9;     // -> exactly 1 s of execution
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::sec(5));
  EXPECT_TRUE(work.finished);
  // base_cpi 0.8 / 2.4 GHz = 1/3 ns/instr -> 1 s (plus tiny stall charges).
  EXPECT_NEAR(dom.vcpu(0).cpu_time.to_seconds(), 1.0, 0.02);
}

TEST(Hypervisor, PmuCountersAccumulateDuringRun) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 1 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  work.total_instructions = 50e6;
  work.rpti = 10.0;
  work.solo_miss = 0.4;
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::sec(2));
  const pmu::CounterSet& c = dom.vcpu(0).pmu.cumulative();
  EXPECT_NEAR(c.instr_retired, 50e6, 1.0);
  EXPECT_NEAR(c.llc_refs, 50e6 * 0.01, 10.0);
  EXPECT_NEAR(c.llc_misses / c.llc_refs, 0.4, 1e-6);
}

TEST(Hypervisor, TimedBlockWakesItself) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 1 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  work.total_instructions = 20e6;
  work.burst = 10e6;
  work.block_for = sim::Time::ms(50);
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::sec(2));
  EXPECT_TRUE(work.finished);
  EXPECT_EQ(work.bursts_completed, 1);  // the final burst finishes instead
}

TEST(Hypervisor, UntimedBlockNeedsExplicitWake) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 1 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  work.total_instructions = 20e6;
  work.burst = 10e6;  // blocks after the first half
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::sec(1));
  EXPECT_FALSE(work.finished);
  EXPECT_EQ(dom.vcpu(0).state, VcpuState::kBlocked);
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::sec(2));
  EXPECT_TRUE(work.finished);
}

TEST(Hypervisor, WakeIsIdempotent) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 1 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  work.total_instructions = 10e6;
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->wake(dom.vcpu(0));  // second wake while runnable: no-op
  hv->engine().run_until(sim::Time::sec(1));
  EXPECT_TRUE(work.finished);
  hv->wake(dom.vcpu(0));  // wake after done: no-op
  EXPECT_EQ(dom.vcpu(0).state, VcpuState::kDone);
}

TEST(Hypervisor, ParallelVcpusShareTheMachine) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 4 * kTestGB, 8,
                                  numa::PlacementPolicy::kFillFirst, 0);
  std::vector<std::unique_ptr<FakeWork>> works;
  for (int i = 0; i < 8; ++i) {
    works.push_back(std::make_unique<FakeWork>());
    works.back()->total_instructions = 24e6;
    hv->bind_work(dom.vcpu(static_cast<std::size_t>(i)), *works.back());
  }
  hv->start();
  for (int i = 0; i < 8; ++i) hv->wake(dom.vcpu(static_cast<std::size_t>(i)));
  hv->engine().run_until(sim::Time::sec(2));
  for (auto& w : works) EXPECT_TRUE(w->finished);
  // 24e6 instructions at base CPI = 8 ms each; 8 VCPUs on 8 PCPUs run in
  // parallel, so each PCPU carries roughly one VCPU's worth of work.
  EXPECT_NEAR(hv->total_busy_time().to_seconds(), 8 * 0.008, 0.008);
  int pcpus_used = 0;
  for (const auto& p : hv->pcpus()) {
    if (p.busy_time > sim::Time::zero()) ++pcpus_used;
  }
  EXPECT_GE(pcpus_used, 6) << "work should spread across the machine";
}

TEST(Hypervisor, OversubscriptionTimeSlices) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 4 * kTestGB, 16,
                                  numa::PlacementPolicy::kFillFirst, 0);
  std::vector<std::unique_ptr<FakeWork>> works;
  for (int i = 0; i < 16; ++i) {
    works.push_back(std::make_unique<FakeWork>());
    works.back()->total_instructions = 1e18;
    hv->bind_work(dom.vcpu(static_cast<std::size_t>(i)), *works.back());
  }
  hv->start();
  for (int i = 0; i < 16; ++i) hv->wake(dom.vcpu(static_cast<std::size_t>(i)));
  hv->engine().run_until(sim::Time::sec(2));
  // Every VCPU must have made progress (fair sharing), roughly equally.
  double min_exec = 1e30, max_exec = 0.0;
  for (auto& w : works) {
    EXPECT_GT(w->executed, 0.0);
    min_exec = std::min(min_exec, w->executed);
    max_exec = std::max(max_exec, w->executed);
  }
  EXPECT_LT(max_exec / min_exec, 1.7);
}

TEST(Hypervisor, MigrationBookkeeping) {
  // FIFO scheduler: no stealing, so the migration outcome is deterministic.
  auto hv = test::make_fifo_hv();
  // Background spinners keep every PCPU busy so nothing idles.
  Domain& bg = hv->create_domain("BG", 2 * kTestGB, 8,
                                 numa::PlacementPolicy::kFillFirst, 0);
  std::vector<std::unique_ptr<FakeWork>> spinners;
  for (int i = 0; i < 8; ++i) {
    spinners.push_back(std::make_unique<FakeWork>());
    hv->bind_work(bg.vcpu(static_cast<std::size_t>(i)), *spinners.back());
  }
  Domain& dom = hv->create_domain("VM1", 2 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  for (int i = 0; i < 8; ++i) hv->wake(bg.vcpu(static_cast<std::size_t>(i)));
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::ms(100));
  // Migrate to whichever node the VCPU is NOT on (boot placement is
  // randomized).
  const numa::NodeId target =
      hv->topology().node_of(dom.vcpu(0).pcpu) == 0 ? 1 : 0;
  const auto migrations_before = dom.vcpu(0).cross_node_migrations;
  hv->migrate_to_node(dom.vcpu(0), target);
  // The target PCPU picks it up at the next slice boundary (< 30 ms); check
  // warmth shortly after, before the cache fully refills.
  hv->engine().run_until(sim::Time::ms(135));
  EXPECT_EQ(hv->topology().node_of(dom.vcpu(0).pcpu), target);
  EXPECT_EQ(dom.vcpu(0).cross_node_migrations, migrations_before + 1);
  EXPECT_LT(dom.vcpu(0).warmth.value(), 0.9);  // cache went cold
  hv->engine().run_until(sim::Time::ms(600));
  EXPECT_GT(dom.vcpu(0).warmth.value(), 0.9);  // ...and warmed back up
}

TEST(Hypervisor, MigrateBlockedVcpuTakesEffectOnWake) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 2 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  work.burst = 5e6;
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::sec(1));
  ASSERT_EQ(dom.vcpu(0).state, VcpuState::kBlocked);
  const numa::NodeId target =
      hv->topology().node_of(dom.vcpu(0).pcpu) == 0 ? 1 : 0;
  hv->migrate_to_node(dom.vcpu(0), target);
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::seconds(1.05));
  EXPECT_EQ(hv->topology().node_of(dom.vcpu(0).pcpu), target);
}

TEST(Hypervisor, LeastLoadedPcpuPrefersIdle) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 2 * kTestGB, 2,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork w0, w1;
  hv->bind_work(dom.vcpu(0), w0);
  hv->bind_work(dom.vcpu(1), w1);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::ms(50));
  Pcpu& chosen = hv->least_loaded_pcpu(0);
  EXPECT_TRUE(chosen.idle());
}

TEST(Hypervisor, OverheadLedgerRecordsContextSwitches) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 1 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::sec(1));
  EXPECT_GT(hv->overhead().count(OverheadBucket::kContextSwitch), 0u);
  EXPECT_GT(hv->overhead().bucket(OverheadBucket::kPmuCollection),
            sim::Time::zero());
  EXPECT_GE(hv->overhead().total(), hv->overhead().paper_overhead());
}

TEST(Hypervisor, ChargedStallDelaysGuestProgress) {
  auto hv = make_credit_hv();
  Domain& dom = hv->create_domain("VM1", 1 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  work.total_instructions = 3e9;  // 1 s of pure CPU
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::ms(100));
  hv->charge_overhead(OverheadBucket::kPartitioning, sim::Time::ms(200),
                      &hv->pcpu(dom.vcpu(0).pcpu));
  hv->engine().run_until(sim::Time::seconds(1.1));
  EXPECT_FALSE(work.finished);  // the 200 ms stall pushed completion out
  hv->engine().run_until(sim::Time::seconds(1.5));
  EXPECT_TRUE(work.finished);
}

// ---------------------------------------------------- Wake-up tickle ----

/// FIFO test scheduler that logs every do_schedule and forced requeue.
class RecordingScheduler : public test::FifoScheduler {
 public:
  std::vector<std::string> calls;

  void requeue_preempted(Vcpu& v) override {
    calls.push_back("requeue " + std::to_string(v.pcpu));
    FifoScheduler::requeue_preempted(v);
  }
  Decision do_schedule(Pcpu& p) override {
    calls.push_back("schedule " + std::to_string(p.id));
    return FifoScheduler::do_schedule(p);
  }
};

class TickleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sched = std::make_unique<RecordingScheduler>();
    sched_ = sched.get();
    hv_ = std::make_unique<Hypervisor>(Hypervisor::Config{}, std::move(sched));
    // The paper machine: PCPUs 0-3 on node 0, 4-7 on node 1.
    ASSERT_EQ(hv_->topology().num_pcpus(), 8);
    ASSERT_EQ(hv_->topology().node_of(3), 0);
    ASSERT_EQ(hv_->topology().node_of(4), 1);
    dom_ = &hv_->create_domain("VM1", 1 * kTestGB, 2,
                               numa::PlacementPolicy::kFillFirst, 0);
    for (std::size_t i = 0; i < work_.size(); ++i) {
      hv_->bind_work(dom_->vcpu(i), work_[i]);
    }
  }

  /// Fire everything queued at the current instant (no timers are armed:
  /// the hypervisor is never start()ed, so only the tickles are queued).
  void drain_now() { hv_->engine().run_until(hv_->now()); }

  /// Wake `v` on PCPU 5 (node 1) and check the whole tickle is one event.
  void wake_on_5(Vcpu& v) {
    v.pcpu = 5;
    const std::size_t before = hv_->engine().queued();
    hv_->wake(v);
    EXPECT_EQ(hv_->engine().queued(), before + 1) << "one event per tickle";
  }

  void expect_no_poke_pending() {
    for (const Pcpu& p : hv_->pcpus()) {
      EXPECT_FALSE(p.poke_pending) << "pcpu " << p.id;
      EXPECT_EQ(p.poke_next, nullptr) << "pcpu " << p.id;
    }
  }

  std::unique_ptr<Hypervisor> hv_;
  RecordingScheduler* sched_ = nullptr;
  Domain* dom_ = nullptr;
  std::array<FakeWork, 2> work_;
};

TEST_F(TickleTest, OneEventRunsTargetThenLocalThenRemotePeers) {
  Vcpu& v = dom_->vcpu(0);
  wake_on_5(v);  // target 5 plus 7 idle peers
  EXPECT_TRUE(sched_->calls.empty()) << "nothing runs until the event fires";
  drain_now();
  const std::vector<std::string> expected = {
      "schedule 5",                              // the target
      "schedule 4", "schedule 6", "schedule 7",  // node-1 peers, ascending
      "schedule 0", "schedule 1", "schedule 2", "schedule 3"};  // node 0
  EXPECT_EQ(sched_->calls, expected);
  EXPECT_EQ(hv_->pcpu(5).current, &v);
  expect_no_poke_pending();
}

TEST_F(TickleTest, PeerAlreadyPendingIsVisitedOnce) {
  hv_->poke(hv_->pcpu(6));  // 6 waits in a batch of its own
  EXPECT_TRUE(hv_->pcpu(6).poke_pending);
  wake_on_5(dom_->vcpu(0));
  drain_now();
  const std::vector<std::string> expected = {
      "schedule 6",  // its own, earlier event
      "schedule 5", "schedule 4", "schedule 7",
      "schedule 0", "schedule 1", "schedule 2", "schedule 3"};
  EXPECT_EQ(sched_->calls, expected);
  expect_no_poke_pending();
}

TEST_F(TickleTest, TargetPreemptRidesTheSameEventAndRunsFirst) {
  Vcpu& hog = dom_->vcpu(0);
  wake_on_5(hog);
  drain_now();
  ASSERT_EQ(hv_->pcpu(5).current, &hog);
  sched_->calls.clear();

  hog.priority = CreditPrio::kOver;
  Vcpu& waker = dom_->vcpu(1);
  waker.priority = CreditPrio::kUnder;  // outranks the hog: preempt 5
  wake_on_5(waker);
  drain_now();
  const std::vector<std::string> expected = {
      "requeue 5", "schedule 5",  // the preempt, then 5's reschedule
      "schedule 4", "schedule 6", "schedule 7",
      "schedule 0", "schedule 1", "schedule 2", "schedule 3"};
  EXPECT_EQ(sched_->calls, expected);
  EXPECT_EQ(hv_->pcpu(5).current, &waker);
  expect_no_poke_pending();
}

}  // namespace
}  // namespace vprobe::hv
