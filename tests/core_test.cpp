// Core vProbe tests: analyzer equations, Algorithm 1 (partitioning),
// Algorithm 2 (NUMA-aware stealing), scheduler variants, BRM, dynamic bounds.
#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/brm_sched.hpp"
#include "core/dynamic_bounds.hpp"
#include "core/lb_sched.hpp"
#include "core/numa_balance.hpp"
#include "core/partitioner.hpp"
#include "core/vcpu_p_sched.hpp"
#include "core/vprobe_sched.hpp"
#include "test_helpers.hpp"

namespace vprobe::core {
namespace {

using test::FakeWork;
using test::kTestGB;

std::unique_ptr<hv::Hypervisor> make_hv(std::unique_ptr<hv::Scheduler> sched,
                                        std::uint64_t seed = 1) {
  hv::Hypervisor::Config cfg;
  cfg.seed = seed;
  return std::make_unique<hv::Hypervisor>(cfg, std::move(sched));
}

pmu::CounterSet window(double instr, double refs, double node0, double node1) {
  pmu::CounterSet c;
  c.instr_retired = instr;
  c.llc_refs = refs;
  c.llc_misses = refs * 0.5;
  c.mem_accesses[0] = node0;
  c.mem_accesses[1] = node1;
  return c;
}

// ------------------------------------------------------------ Analyzer ----

TEST(Analyzer, Equation2LlcPressure) {
  // 22.41 refs per 1000 instructions -> pressure 22.41 with alpha=1000.
  EXPECT_NEAR(PmuDataAnalyzer::llc_pressure(window(1e9, 22.41e6, 0, 0)), 22.41, 1e-9);
  EXPECT_DOUBLE_EQ(PmuDataAnalyzer::llc_pressure(window(0, 100, 0, 0)), 0.0);
}

TEST(Analyzer, Equation3Bounds) {
  const PmuDataAnalyzer a;  // low=3, high=20
  EXPECT_EQ(a.classify(0.48), hv::VcpuType::kLlcFriendly);
  EXPECT_EQ(a.classify(2.99), hv::VcpuType::kLlcFriendly);
  EXPECT_EQ(a.classify(3.0), hv::VcpuType::kLlcFitting);
  EXPECT_EQ(a.classify(15.38), hv::VcpuType::kLlcFitting);
  EXPECT_EQ(a.classify(19.99), hv::VcpuType::kLlcFitting);
  EXPECT_EQ(a.classify(20.0), hv::VcpuType::kLlcThrashing);
  EXPECT_EQ(a.classify(22.41), hv::VcpuType::kLlcThrashing);
}

TEST(Analyzer, Equation1AffinityArgMax) {
  hv::Domain dom(1, "d", nullptr);
  hv::Vcpu& v = dom.add_vcpu(0);
  v.pmu.begin_window();
  v.pmu.add(window(1e9, 25e6, 100.0, 900.0));
  PmuDataAnalyzer a;
  a.analyze(v);
  EXPECT_EQ(v.node_affinity, 1);
  EXPECT_NEAR(v.llc_pressure, 25.0, 1e-9);
  EXPECT_EQ(v.vcpu_type, hv::VcpuType::kLlcThrashing);
}

TEST(Analyzer, IdleVcpuKeepsPreviousCharacterisation) {
  hv::Domain dom(1, "d", nullptr);
  hv::Vcpu& v = dom.add_vcpu(0);
  v.node_affinity = 1;
  v.llc_pressure = 17.0;
  v.vcpu_type = hv::VcpuType::kLlcFitting;
  v.pmu.begin_window();  // empty window
  PmuDataAnalyzer a;
  a.analyze(v);
  EXPECT_EQ(v.node_affinity, 1);
  EXPECT_DOUBLE_EQ(v.llc_pressure, 17.0);
  EXPECT_EQ(v.vcpu_type, hv::VcpuType::kLlcFitting);
}

TEST(Analyzer, MemoryIntensivePredicate) {
  EXPECT_FALSE(hv::is_memory_intensive(hv::VcpuType::kLlcFriendly));
  EXPECT_TRUE(hv::is_memory_intensive(hv::VcpuType::kLlcFitting));
  EXPECT_TRUE(hv::is_memory_intensive(hv::VcpuType::kLlcThrashing));
}

// --------------------------------------------------------- Partitioner ----

class PartitionerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hv_ = make_hv(std::make_unique<hv::CreditScheduler>());
    dom_ = &hv_->create_domain("VM1", 8 * kTestGB, 8,
                               numa::PlacementPolicy::kFillFirst, 0);
    for (std::size_t i = 0; i < 8; ++i) {
      works_.push_back(std::make_unique<FakeWork>());
      hv_->bind_work(dom_->vcpu(i), *works_.back());
    }
    hv_->start();
  }

  /// Give a VCPU a synthetic characterisation.
  void characterize(std::size_t i, hv::VcpuType type, numa::NodeId affinity,
                    double pressure = 10.0) {
    hv::Vcpu& v = dom_->vcpu(i);
    v.vcpu_type = type;
    v.node_affinity = affinity;
    v.llc_pressure = pressure;
  }

  int node_of(std::size_t i) {
    return hv_->topology().node_of(dom_->vcpu(i).pcpu);
  }

  std::unique_ptr<hv::Hypervisor> hv_;
  hv::Domain* dom_ = nullptr;
  std::vector<std::unique_ptr<FakeWork>> works_;
  PeriodicalPartitioner partitioner_;
};

TEST_F(PartitionerTest, IgnoresLlcFriendlyVcpus) {
  for (std::size_t i = 0; i < 8; ++i) {
    characterize(i, hv::VcpuType::kLlcFriendly, 0);
  }
  const auto r = partitioner_.partition(*hv_);
  EXPECT_EQ(r.considered, 0);
  EXPECT_EQ(r.reassigned, 0);
}

TEST_F(PartitionerTest, SpreadsMemoryIntensiveVcpusEvenly) {
  // 4 LLC-T VCPUs, all with affinity to node 0: two must land on each node.
  for (std::size_t i = 0; i < 4; ++i) {
    characterize(i, hv::VcpuType::kLlcThrashing, 0);
  }
  for (std::size_t i = 4; i < 8; ++i) {
    characterize(i, hv::VcpuType::kLlcFriendly, 0);
  }
  const auto r = partitioner_.partition(*hv_);
  EXPECT_EQ(r.considered, 4);
  hv_->engine().run_until(hv_->now() + sim::Time::ms(1));
  int on_node0 = 0, on_node1 = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    (node_of(i) == 0 ? on_node0 : on_node1)++;
  }
  EXPECT_EQ(on_node0, 2);
  EXPECT_EQ(on_node1, 2);
}

TEST_F(PartitionerTest, PrefersLocalNodeWhenBalanced) {
  // Two LLC-T with affinity 0, two with affinity 1 — everyone stays local.
  characterize(0, hv::VcpuType::kLlcThrashing, 0);
  characterize(1, hv::VcpuType::kLlcThrashing, 0);
  characterize(2, hv::VcpuType::kLlcThrashing, 1);
  characterize(3, hv::VcpuType::kLlcThrashing, 1);
  // Put them physically where their affinity says.
  hv_->migrate_to_node(dom_->vcpu(0), 0);
  hv_->migrate_to_node(dom_->vcpu(1), 0);
  hv_->migrate_to_node(dom_->vcpu(2), 1);
  hv_->migrate_to_node(dom_->vcpu(3), 1);
  for (std::size_t i = 4; i < 8; ++i) characterize(i, hv::VcpuType::kLlcFriendly, 0);

  const auto r = partitioner_.partition(*hv_);
  EXPECT_EQ(r.considered, 4);
  EXPECT_EQ(r.cross_node_moves, 0) << "balanced local VCPUs must not move";
  EXPECT_EQ(node_of(0), 0);
  EXPECT_EQ(node_of(2), 1);
}

TEST_F(PartitionerTest, LlcThrashingAssignedBeforeFitting) {
  // 2 LLC-T affinity 1 and 2 LLC-FI affinity 1.  The two LLC-T must end up
  // on different nodes (assigned first, one per node), even though all four
  // prefer node 1.
  characterize(0, hv::VcpuType::kLlcThrashing, 1);
  characterize(1, hv::VcpuType::kLlcThrashing, 1);
  characterize(2, hv::VcpuType::kLlcFitting, 1);
  characterize(3, hv::VcpuType::kLlcFitting, 1);
  for (std::size_t i = 4; i < 8; ++i) characterize(i, hv::VcpuType::kLlcFriendly, 0);

  partitioner_.partition(*hv_);
  hv_->engine().run_until(hv_->now() + sim::Time::ms(1));
  EXPECT_NE(node_of(0), node_of(1));
  EXPECT_NE(node_of(2), node_of(3));
}

TEST_F(PartitionerTest, CostScalesWithWork) {
  for (std::size_t i = 0; i < 4; ++i) characterize(i, hv::VcpuType::kLlcThrashing, 0);
  for (std::size_t i = 4; i < 8; ++i) characterize(i, hv::VcpuType::kLlcFriendly, 0);
  const auto r = partitioner_.partition(*hv_);
  EXPECT_GE(r.cost, PeriodicalPartitioner::kPerVcpuCost * r.reassigned);
  EXPECT_GE(r.cross_node_moves, 1);
}

// ---------------------------------------------------- NumaAwareBalancer ----

class BalancerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hv_ = make_hv(std::make_unique<hv::CreditScheduler>());
    dom_ = &hv_->create_domain("VM1", 8 * kTestGB, 8,
                               numa::PlacementPolicy::kFillFirst, 0);
  }

  hv::Vcpu& queued(std::size_t i, numa::PcpuId pcpu, double pressure) {
    hv::Vcpu& v = dom_->vcpu(i);
    v.state = hv::VcpuState::kRunnable;
    v.llc_pressure = pressure;
    v.pcpu = pcpu;
    hv_->pcpu(pcpu).queue.insert(v);
    return v;
  }

  std::unique_ptr<hv::Hypervisor> hv_;
  hv::Domain* dom_ = nullptr;
  NumaAwareBalancer balancer_;
};

TEST_F(BalancerTest, PrefersLocalNode) {
  hv::Vcpu& local = queued(0, 1, 30.0);    // node 0
  queued(1, 5, 1.0);                       // node 1 (lower pressure, remote)
  hv::Vcpu* stolen = balancer_.steal(*hv_, hv_->pcpu(0));
  EXPECT_EQ(stolen, &local) << "local node must be preferred over remote";
  EXPECT_EQ(balancer_.stats().local_steals, 1u);
}

TEST_F(BalancerTest, PicksSmallestPressureInQueue) {
  queued(0, 1, 30.0);
  hv::Vcpu& small = queued(1, 1, 2.0);
  queued(2, 1, 10.0);
  hv::Vcpu* stolen = balancer_.steal(*hv_, hv_->pcpu(0));
  EXPECT_EQ(stolen, &small);
  EXPECT_FALSE(small.in_runqueue);
}

TEST_F(BalancerTest, ChecksHeaviestPcpuFirst) {
  queued(0, 1, 5.0);             // pcpu 1: one waiting
  queued(1, 2, 9.0);             // pcpu 2: two waiting (heaviest)
  hv::Vcpu& target = queued(2, 2, 7.0);
  hv::Vcpu* stolen = balancer_.steal(*hv_, hv_->pcpu(0));
  EXPECT_EQ(stolen, &target) << "heaviest PCPU's smallest-pressure VCPU";
}

TEST_F(BalancerTest, FallsBackToRemoteNode) {
  hv::Vcpu& remote = queued(0, 6, 12.0);  // node 1 only
  hv::Vcpu* stolen = balancer_.steal(*hv_, hv_->pcpu(0));
  EXPECT_EQ(stolen, &remote);
  EXPECT_EQ(balancer_.stats().remote_steals, 1u);
}

TEST_F(BalancerTest, ReturnsNullWhenNothingRunnable) {
  EXPECT_EQ(balancer_.steal(*hv_, hv_->pcpu(0)), nullptr);
}

// ------------------------------------------------------ Scheduler names ----

TEST(Schedulers, NamesAndAblationWiring) {
  VprobeScheduler vprobe;
  EXPECT_STREQ(vprobe.name(), "vProbe");
  EXPECT_TRUE(vprobe.options().enable_partitioning);
  EXPECT_TRUE(vprobe.options().enable_numa_balance);

  VcpuPScheduler vcpu_p;
  EXPECT_STREQ(vcpu_p.name(), "VCPU-P");
  EXPECT_TRUE(vcpu_p.options().enable_partitioning);
  EXPECT_FALSE(vcpu_p.options().enable_numa_balance);

  LbScheduler lb;
  EXPECT_STREQ(lb.name(), "LB");
  EXPECT_FALSE(lb.options().enable_partitioning);
  EXPECT_TRUE(lb.options().enable_numa_balance);

  BrmScheduler brm;
  EXPECT_STREQ(brm.name(), "BRM");
}

TEST(Schedulers, VprobeAnalyzesAndPartitionsPeriodically) {
  auto sched = std::make_unique<VprobeScheduler>();
  VprobeScheduler* sp = sched.get();
  auto hv = make_hv(std::move(sched));
  hv::Domain& dom = hv->create_domain("VM1", 8 * kTestGB, 4,
                                      numa::PlacementPolicy::kFillFirst, 0);
  std::vector<std::unique_ptr<FakeWork>> works;
  for (std::size_t i = 0; i < 4; ++i) {
    works.push_back(std::make_unique<FakeWork>());
    works.back()->rpti = 22.0;   // LLC-thrashing signature
    works.back()->solo_miss = 0.5;
    works.back()->working_set = 24e6;
    hv->bind_work(dom.vcpu(i), *works.back());
  }
  hv->start();
  for (std::size_t i = 0; i < 4; ++i) hv->wake(dom.vcpu(i));
  hv->engine().run_until(sim::Time::seconds(2.5));

  EXPECT_EQ(sp->partition_rounds(), 2u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(dom.vcpu(i).vcpu_type, hv::VcpuType::kLlcThrashing);
    EXPECT_NEAR(dom.vcpu(i).llc_pressure, 22.0, 1.0);
  }
  EXPECT_GT(hv->overhead().bucket(hv::OverheadBucket::kPartitioning),
            sim::Time::zero());
}

// ----------------------------------------------------------------- BRM ----

TEST(Brm, UncorePenaltyFavoursDataNode) {
  hv::Domain dom(1, "d", nullptr);
  hv::Vcpu& v = dom.add_vcpu(0);
  v.pmu.begin_window();
  v.pmu.add(window(1e9, 20e6, 9e6, 1e6));  // 90% of data on node 0
  EXPECT_LT(BrmScheduler::uncore_penalty(v, 0),
            BrmScheduler::uncore_penalty(v, 1));
  EXPECT_NEAR(BrmScheduler::uncore_penalty(v, 0),
              10.0 * 0.1, 1e-9);  // miss intensity 10/kinstr * 10% remote
}

TEST(Brm, ChargesLockWaitOverhead) {
  auto hv = make_hv(std::make_unique<BrmScheduler>());
  hv::Domain& dom = hv->create_domain("VM1", 4 * kTestGB, 4,
                                      numa::PlacementPolicy::kFillFirst, 0);
  std::vector<std::unique_ptr<FakeWork>> works;
  for (std::size_t i = 0; i < 4; ++i) {
    works.push_back(std::make_unique<FakeWork>());
    works.back()->burst = 5e6;
    works.back()->block_for = sim::Time::ms(2);
    hv->bind_work(dom.vcpu(i), *works.back());
  }
  hv->start();
  for (std::size_t i = 0; i < 4; ++i) hv->wake(dom.vcpu(i));
  hv->engine().run_until(sim::Time::sec(2));
  EXPECT_GT(hv->overhead().bucket(hv::OverheadBucket::kLockWait),
            sim::Time::zero());
  EXPECT_GT(static_cast<BrmScheduler&>(hv->scheduler()).lock_updates(), 100u);
}

// -------------------------------------------------------- DynamicBounds ----

TEST(DynamicBoundsTest, MovesTowardQuantiles) {
  // Six pressures: the 1/3-quantile interpolates to 2 + 2/3, the
  // 2/3-quantile to 20 + 5/3.  One update moves each bound 0.3 of the way
  // there from the paper's 3 and 20.
  PmuDataAnalyzer analyzer;
  DynamicBounds::update(analyzer, {1.0, 2.0, 3.0, 20.0, 25.0, 30.0});
  const double q_low = 2.0 + 2.0 / 3.0;
  const double q_high = 20.0 + 5.0 / 3.0;
  EXPECT_DOUBLE_EQ(analyzer.config().low,
                   3.0 + DynamicBounds::kSmoothing * (q_low - 3.0));
  EXPECT_DOUBLE_EQ(analyzer.config().high,
                   20.0 + DynamicBounds::kSmoothing * (q_high - 20.0));
  EXPECT_LT(analyzer.config().low, 3.0);
  EXPECT_GT(analyzer.config().high, 20.0);
}

TEST(DynamicBoundsTest, EmptyInputIsNoOp) {
  PmuDataAnalyzer analyzer;
  DynamicBounds::update(analyzer, {});
  EXPECT_DOUBLE_EQ(analyzer.config().low, 3.0);
  EXPECT_DOUBLE_EQ(analyzer.config().high, 20.0);
}

TEST(DynamicBoundsTest, RespectsEnvelopeAndGap) {
  // Far above the envelope: both bounds clamp to their maxima.
  PmuDataAnalyzer analyzer;
  DynamicBounds::update(analyzer, {100.0, 200.0, 300.0});
  EXPECT_DOUBLE_EQ(analyzer.config().low, DynamicBounds::kMaxLow);
  EXPECT_DOUBLE_EQ(analyzer.config().high, DynamicBounds::kMaxHigh);

  // Every VCPU at the same pressure: the smoothed bounds converge on it,
  // low clamps to kMaxLow and high is pushed up to keep the gap.
  PmuDataAnalyzer flat;
  for (int period = 0; period < 60; ++period) {
    DynamicBounds::update(flat, {9.0, 9.0, 9.0});
  }
  EXPECT_DOUBLE_EQ(flat.config().low, DynamicBounds::kMaxLow);
  EXPECT_DOUBLE_EQ(flat.config().high, DynamicBounds::kMaxLow + DynamicBounds::kMinGap);
}

}  // namespace
}  // namespace vprobe::core
