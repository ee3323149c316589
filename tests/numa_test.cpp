// Unit tests for the NUMA machine model: config, topology, LLC, IMC,
// interconnect, memory placement, page migration.
#include <gtest/gtest.h>

#include "numa/interconnect.hpp"
#include "numa/llc_model.hpp"
#include "numa/machine_config.hpp"
#include "numa/mem_controller.hpp"
#include "numa/page_migration.hpp"
#include "numa/rate_tracker.hpp"
#include "numa/topology.hpp"
#include "numa/vm_memory.hpp"

namespace vprobe::numa {
namespace {

constexpr std::int64_t kMB = 1024 * 1024;
constexpr std::int64_t kGB = 1024 * kMB;

// ------------------------------------------------------- MachineConfig ----

TEST(MachineConfig, Xeon5620MatchesTableI) {
  const MachineConfig cfg = MachineConfig::xeon_e5620();
  EXPECT_EQ(cfg.num_nodes, 2);
  EXPECT_EQ(cfg.cores_per_node, 4);
  EXPECT_DOUBLE_EQ(cfg.clock_ghz, 2.40);
  EXPECT_EQ(cfg.llc_bytes, 12 * kMB);
  EXPECT_EQ(cfg.mem_bytes_per_node, 12 * kGB);
  EXPECT_DOUBLE_EQ(cfg.imc_bandwidth_bytes_per_s, 25.6e9);
  EXPECT_EQ(cfg.qpi_links, 2);
  EXPECT_EQ(cfg.total_pcpus(), 8);
}

TEST(MachineConfig, ValidateRejectsBadFields) {
  MachineConfig cfg = MachineConfig::xeon_e5620();
  cfg.num_nodes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = MachineConfig::xeon_e5620();
  cfg.chunk_bytes = 12345;  // not a multiple of the page size
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = MachineConfig::xeon_e5620();
  cfg.base_cpi = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(MachineConfig, SummaryMentionsKeyNumbers) {
  const std::string s = MachineConfig::xeon_e5620().summary();
  EXPECT_NE(s.find("2 node(s)"), std::string::npos);
  EXPECT_NE(s.find("12 MB"), std::string::npos);
  EXPECT_NE(s.find("25.6"), std::string::npos);
}

// ------------------------------------------------------------ Topology ----

TEST(Topology, PcpuNodeMapping) {
  const Topology topo(MachineConfig::xeon_e5620());
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.num_pcpus(), 8);
  for (PcpuId p = 0; p < 4; ++p) EXPECT_EQ(topo.node_of(p), 0);
  for (PcpuId p = 4; p < 8; ++p) EXPECT_EQ(topo.node_of(p), 1);
}

TEST(Topology, PcpusOfNode) {
  const Topology topo(MachineConfig::xeon_e5620());
  const auto node1 = topo.pcpus_of(1);
  ASSERT_EQ(node1.size(), 4u);
  EXPECT_EQ(node1[0], 4);
  EXPECT_EQ(node1[3], 7);
}

TEST(Topology, SameNode) {
  const Topology topo(MachineConfig::xeon_e5620());
  EXPECT_TRUE(topo.same_node(0, 3));
  EXPECT_FALSE(topo.same_node(3, 4));
}

TEST(Topology, NodesByDistanceSelfFirst) {
  const Topology topo(MachineConfig::four_node_server());
  const auto order = topo.nodes_by_distance(2);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 2);
  // Remaining nodes in id order.
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 3);
}

// --------------------------------------------------------- RateTracker ----

TEST(RateTracker, SteadyFlowConvergesToRate) {
  RateTracker t(sim::Time::ms(10));
  sim::Time now = sim::Time::zero();
  for (int i = 0; i < 100; ++i) {
    now += sim::Time::ms(1);
    t.record(1000.0, now, sim::Time::ms(1));  // 1 MB/s
  }
  EXPECT_NEAR(t.rate(now), 1e6, 1e5);
}

TEST(RateTracker, DecaysWhenIdle) {
  RateTracker t(sim::Time::ms(10));
  sim::Time now = sim::Time::ms(1);
  t.record(1e6, now, sim::Time::ms(1));
  const double r0 = t.rate(now);
  ASSERT_GT(r0, 0.0);
  EXPECT_LT(t.rate(now + sim::Time::ms(30)), r0 * 0.1);
}

// ------------------------------------------------------------ LlcModel ----

TEST(LlcModel, NoOvercommitWhenDemandFits) {
  LlcModel llc(12 * kMB);
  llc.set_demand(1, 4.0 * kMB);
  llc.set_demand(2, 6.0 * kMB);
  EXPECT_DOUBLE_EQ(llc.overcommit(), 0.0);
  EXPECT_DOUBLE_EQ(llc.miss_rate(0.1, 0.5), 0.1);
}

TEST(LlcModel, OvercommitGrowsWithDemand) {
  LlcModel llc(12 * kMB);
  llc.set_demand(1, 12.0 * kMB);
  llc.set_demand(2, 12.0 * kMB);
  EXPECT_DOUBLE_EQ(llc.overcommit(), 0.5);
  EXPECT_DOUBLE_EQ(llc.miss_rate(0.1, 0.4), 0.1 + 0.4 * 0.5);
}

TEST(LlcModel, MissRateClamped) {
  LlcModel llc(1 * kMB);
  llc.set_demand(1, 100.0 * kMB);
  EXPECT_LE(llc.miss_rate(0.9, 5.0), 1.0);
}

TEST(LlcModel, RemoveRestoresState) {
  LlcModel llc(12 * kMB);
  llc.set_demand(1, 24.0 * kMB);
  EXPECT_GT(llc.overcommit(), 0.0);
  llc.remove(1);
  EXPECT_DOUBLE_EQ(llc.overcommit(), 0.0);
  EXPECT_EQ(llc.occupants(), 0);
  llc.remove(1);  // double remove is a no-op
}

TEST(LlcModel, UpdateExistingOccupant) {
  LlcModel llc(10 * kMB);
  llc.set_demand(7, 5.0 * kMB);
  llc.set_demand(7, 8.0 * kMB);
  EXPECT_DOUBLE_EQ(llc.total_demand_bytes(), 8.0 * kMB);
  EXPECT_EQ(llc.occupants(), 1);
}

TEST(LlcModel, TotalsSurviveChurn) {
  // Adds and removes in mixed order, including swap-erase from the middle
  // of the flat occupant vector, must keep the total-demand arithmetic.
  LlcModel llc(12ll << 20);
  llc.set_demand(10, 1.0e6);
  llc.set_demand(11, 2.0e6);
  llc.set_demand(12, 3.0e6);
  EXPECT_EQ(llc.occupants(), 3);
  EXPECT_DOUBLE_EQ(llc.total_demand_bytes(), 6.0e6);
  llc.remove(11);  // middle entry: swap-erase path
  EXPECT_EQ(llc.occupants(), 2);
  EXPECT_DOUBLE_EQ(llc.total_demand_bytes(), 4.0e6);
  llc.set_demand(12, 1.5e6);  // shrink an existing entry
  EXPECT_DOUBLE_EQ(llc.total_demand_bytes(), 2.5e6);
  llc.remove(10);
  llc.remove(12);
  EXPECT_EQ(llc.occupants(), 0);
  EXPECT_DOUBLE_EQ(llc.total_demand_bytes(), 0.0);
}

// ------------------------------------------------------- MemController ----

TEST(MemController, IdleHasUnitFactor) {
  MemController imc(25.6e9);
  EXPECT_DOUBLE_EQ(imc.latency_factor(sim::Time::sec(1)), 1.0);
}

TEST(MemController, FactorGrowsWithLoad) {
  MemController imc(25.6e9);
  sim::Time now = sim::Time::zero();
  // Pump half the bandwidth for a while.
  for (int i = 0; i < 50; ++i) {
    now += sim::Time::ms(1);
    imc.record_traffic(12.8e9 * 1e-3, now, sim::Time::ms(1));
  }
  const double f = imc.latency_factor(now);
  EXPECT_GT(f, 1.5);
  EXPECT_LT(f, 3.0);  // rho ~= 0.5 -> factor ~= 2
}

TEST(MemController, FactorIsClamped) {
  MemController imc(1e9);
  sim::Time now = sim::Time::zero();
  for (int i = 0; i < 100; ++i) {
    now += sim::Time::ms(1);
    imc.record_traffic(1e9, now, sim::Time::ms(1));  // 1000x oversubscribed
  }
  EXPECT_LE(imc.latency_factor(now), 8.0);
}

// -------------------------------------------------------- Interconnect ----

TEST(Interconnect, LocalAccessFree) {
  const MachineConfig cfg = MachineConfig::xeon_e5620();
  Interconnect qpi(cfg);
  EXPECT_DOUBLE_EQ(qpi.remote_extra_ns(0, 0, sim::Time::zero()), 0.0);
}

TEST(Interconnect, RemoteBaseLatency) {
  const MachineConfig cfg = MachineConfig::xeon_e5620();
  Interconnect qpi(cfg);
  EXPECT_DOUBLE_EQ(qpi.remote_extra_ns(0, 1, sim::Time::zero()),
                   cfg.remote_extra_latency_ns);
}

TEST(Interconnect, CongestionRaisesLatency) {
  const MachineConfig cfg = MachineConfig::xeon_e5620();
  Interconnect qpi(cfg);
  sim::Time now = sim::Time::zero();
  const double half_bw = qpi.link_bandwidth_bytes_per_s() / 2;
  for (int i = 0; i < 50; ++i) {
    now += sim::Time::ms(1);
    qpi.record_traffic(0, 1, half_bw * 1e-3, now, sim::Time::ms(1));
  }
  EXPECT_GT(qpi.remote_extra_ns(0, 1, now), cfg.remote_extra_latency_ns + 20.0);
  // The reverse direction is unaffected.
  EXPECT_DOUBLE_EQ(qpi.remote_extra_ns(1, 0, now), cfg.remote_extra_latency_ns);
}

// ------------------------------------------------------- MemoryManager ----

TEST(MemoryManager, CapacityMatchesConfig) {
  const MachineConfig cfg = MachineConfig::xeon_e5620();
  MemoryManager mm(cfg);
  EXPECT_EQ(mm.capacity_chunks(0), cfg.chunks_per_node());
  EXPECT_EQ(mm.free_chunks(0), cfg.chunks_per_node());
}

TEST(MemoryManager, FillFirstDrainsNodeZeroFirst) {
  const MachineConfig cfg = MachineConfig::xeon_e5620();
  MemoryManager mm(cfg);
  for (std::int64_t i = 0; i < cfg.chunks_per_node(); ++i) {
    EXPECT_EQ(mm.reserve_chunk_fill_first(), 0);
  }
  EXPECT_EQ(mm.reserve_chunk_fill_first(), 1);
}

TEST(MemoryManager, PreferredNodeHonoured) {
  MemoryManager mm(MachineConfig::xeon_e5620());
  EXPECT_EQ(mm.reserve_chunk(1), 1);
}

TEST(MemoryManager, OverflowsToFreestNode) {
  const MachineConfig cfg = MachineConfig::xeon_e5620();
  MemoryManager mm(cfg);
  // Exhaust node 1, then ask for node 1: should land on node 0.
  for (std::int64_t i = 0; i < cfg.chunks_per_node(); ++i) mm.reserve_chunk(1);
  EXPECT_EQ(mm.free_chunks(1), 0);
  EXPECT_EQ(mm.reserve_chunk(1), 0);
}

TEST(MemoryManager, ThrowsWhenExhausted) {
  MachineConfig cfg = MachineConfig::xeon_e5620();
  cfg.mem_bytes_per_node = cfg.chunk_bytes;  // one chunk per node
  cfg.validate();
  MemoryManager mm(cfg);
  mm.reserve_chunk(0);
  mm.reserve_chunk(0);
  EXPECT_THROW(mm.reserve_chunk(0), std::bad_alloc);
}

TEST(MemoryManager, ReleaseReturnsCapacity) {
  MemoryManager mm(MachineConfig::xeon_e5620());
  const NodeId n = mm.reserve_chunk(0);
  const auto free_before = mm.free_chunks(n);
  mm.release_chunk(n);
  EXPECT_EQ(mm.free_chunks(n), free_before + 1);
}

// ------------------------------------------------------------ VmMemory ----

class VmMemoryTest : public ::testing::Test {
 protected:
  MachineConfig cfg_ = MachineConfig::xeon_e5620();
  MemoryManager mm_{cfg_};
};

TEST_F(VmMemoryTest, FillFirstConcentratesOnNodeZero) {
  VmMemory vm(mm_, cfg_, 8 * kGB, PlacementPolicy::kFillFirst);
  const auto census = vm.node_census();
  EXPECT_EQ(census[0], vm.total_chunks());
  EXPECT_EQ(census[1], 0);
}

TEST_F(VmMemoryTest, FillFirstSpillsAcrossNodes) {
  VmMemory vm(mm_, cfg_, 15 * kGB, PlacementPolicy::kFillFirst);
  const auto census = vm.node_census();
  EXPECT_EQ(census[0], cfg_.chunks_per_node());   // node 0 full
  EXPECT_EQ(census[1], vm.total_chunks() - cfg_.chunks_per_node());
}

TEST_F(VmMemoryTest, StripedAlternatesNodes) {
  VmMemory vm(mm_, cfg_, 1 * kGB, PlacementPolicy::kStriped);
  const auto census = vm.node_census();
  EXPECT_NEAR(static_cast<double>(census[0]), static_cast<double>(census[1]), 1.0);
}

TEST_F(VmMemoryTest, OnNodePlacesEverythingOnPreferred) {
  VmMemory vm(mm_, cfg_, 2 * kGB, PlacementPolicy::kOnNode, 1);
  const auto census = vm.node_census();
  EXPECT_EQ(census[1], vm.total_chunks());
}

TEST_F(VmMemoryTest, FirstTouchStartsHomeless) {
  VmMemory vm(mm_, cfg_, 1 * kGB, PlacementPolicy::kFirstTouch);
  EXPECT_EQ(vm.chunk_home(0), kInvalidNode);
  const auto census = vm.node_census();
  EXPECT_EQ(census[0] + census[1], 0);
}

TEST_F(VmMemoryTest, TouchAssignsHomes) {
  VmMemory vm(mm_, cfg_, 1 * kGB, PlacementPolicy::kFirstTouch);
  const Region r = vm.alloc_region(512 * kMB);
  vm.touch(r, 0.5, 1);
  const auto census = vm.node_census();
  EXPECT_EQ(census[1], r.num_chunks / 2);
  // Touching again with another node does not re-home.
  vm.touch(r, 0.5, 0);
  EXPECT_EQ(vm.node_census()[0], 0);
}

TEST_F(VmMemoryTest, RegionAllocationIsBumpStyle) {
  VmMemory vm(mm_, cfg_, 1 * kGB, PlacementPolicy::kFillFirst);
  const Region a = vm.alloc_region(100 * kMB);
  const Region b = vm.alloc_region(100 * kMB);
  EXPECT_EQ(b.first_chunk, a.first_chunk + a.num_chunks);
  EXPECT_THROW(vm.alloc_region(10 * kGB), std::bad_alloc);
}

TEST_F(VmMemoryTest, NodeFractionsSumToOne) {
  VmMemory vm(mm_, cfg_, 15 * kGB, PlacementPolicy::kFillFirst);
  const Region r = vm.alloc_region(14 * kGB);
  const auto& f = vm.node_fractions(r);
  double sum = 0.0;
  for (double v : f) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(f[0], f[1]);  // mostly node 0
}

TEST_F(VmMemoryTest, FractionCacheInvalidatedByMigration) {
  VmMemory vm(mm_, cfg_, 1 * kGB, PlacementPolicy::kOnNode, 0);
  const Region r = vm.alloc_region(512 * kMB);
  EXPECT_DOUBLE_EQ(vm.node_fractions(r)[0], 1.0);
  ASSERT_TRUE(vm.migrate_chunk(r.first_chunk, 1));
  EXPECT_LT(vm.node_fractions(r)[0], 1.0);
  EXPECT_GT(vm.node_fractions(r)[1], 0.0);
}

TEST_F(VmMemoryTest, MigrateChunkMovesPhysicalAccounting) {
  VmMemory vm(mm_, cfg_, 1 * kGB, PlacementPolicy::kOnNode, 0);
  const auto used0 = mm_.used_chunks(0);
  const auto used1 = mm_.used_chunks(1);
  ASSERT_TRUE(vm.migrate_chunk(0, 1));
  EXPECT_EQ(mm_.used_chunks(0), used0 - 1);
  EXPECT_EQ(mm_.used_chunks(1), used1 + 1);
  EXPECT_EQ(vm.chunk_home(0), 1);
  // Migrating to where it already lives is a no-op.
  EXPECT_FALSE(vm.migrate_chunk(0, 1));
}

TEST_F(VmMemoryTest, RepeatedMigrateBackAndForthConservesChunks) {
  // Ping-pong one chunk between nodes 100 times: every step must move
  // exactly one chunk of accounting and the totals must never drift — a
  // double-free or leak in migrate_chunk would compound here.
  VmMemory vm(mm_, cfg_, 1 * kGB, PlacementPolicy::kOnNode, 0);
  const auto cap0 = mm_.capacity_chunks(0);
  const auto cap1 = mm_.capacity_chunks(1);
  const auto total_used = mm_.used_chunks(0) + mm_.used_chunks(1);
  const auto total_homed = vm.node_census()[0] + vm.node_census()[1];

  for (int round = 0; round < 100; ++round) {
    const NodeId to = (round % 2 == 0) ? 1 : 0;
    ASSERT_TRUE(vm.migrate_chunk(0, to)) << "round " << round;
    EXPECT_EQ(vm.chunk_home(0), to);
    // Physical pools: conserved in total, consistent per node.
    EXPECT_EQ(mm_.used_chunks(0) + mm_.used_chunks(1), total_used);
    EXPECT_EQ(mm_.used_chunks(0) + mm_.free_chunks(0), cap0);
    EXPECT_EQ(mm_.used_chunks(1) + mm_.free_chunks(1), cap1);
    // The VM's own census agrees with the pools.
    const auto census = vm.node_census();
    EXPECT_EQ(census[0] + census[1], total_homed);
    EXPECT_EQ(census[0], mm_.used_chunks(0));
    EXPECT_EQ(census[1], mm_.used_chunks(1));
  }
}

TEST_F(VmMemoryTest, MigrateToFullNodeFailsWithoutSideEffects) {
  VmMemory vm(mm_, cfg_, 1 * kGB, PlacementPolicy::kOnNode, 0);
  // Fill node 1 completely with a second VM.
  VmMemory hog(mm_, cfg_, cfg_.chunks_per_node() * cfg_.chunk_bytes,
               PlacementPolicy::kOnNode, 1);
  ASSERT_EQ(mm_.free_chunks(1), 0);

  const auto used0 = mm_.used_chunks(0);
  const auto census_before = vm.node_census();
  EXPECT_FALSE(vm.migrate_chunk(0, 1));
  EXPECT_EQ(vm.chunk_home(0), 0);
  EXPECT_EQ(mm_.used_chunks(0), used0);
  EXPECT_EQ(mm_.free_chunks(1), 0);
  EXPECT_EQ(vm.node_census(), census_before);
}

TEST_F(VmMemoryTest, DestructorReleasesMemory) {
  const auto free_before = mm_.free_chunks(0);
  {
    VmMemory vm(mm_, cfg_, 4 * kGB, PlacementPolicy::kOnNode, 0);
    EXPECT_LT(mm_.free_chunks(0), free_before);
  }
  EXPECT_EQ(mm_.free_chunks(0), free_before);
}

// ------------------------------------------------------- PageMigrator ----

TEST_F(VmMemoryTest, PageMigratorMovesTowardTarget) {
  VmMemory vm(mm_, cfg_, 1 * kGB, PlacementPolicy::kOnNode, 0);
  const Region r = vm.alloc_region(256 * kMB);  // 64 chunks
  const auto result = PageMigrator::rebalance(vm, r, 1);
  EXPECT_EQ(result.chunks_moved, PageMigrator::kMaxChunksPerRound);
  EXPECT_EQ(result.cost, PageMigrator::kCostPerChunk * PageMigrator::kMaxChunksPerRound);
  EXPECT_NEAR(vm.node_fractions(r)[1], 16.0 / 64.0, 1e-9);
}

TEST_F(VmMemoryTest, PageMigratorStopsWhenSatisfied) {
  VmMemory vm(mm_, cfg_, 1 * kGB, PlacementPolicy::kOnNode, 1);
  const Region r = vm.alloc_region(128 * kMB);
  const auto result = PageMigrator::rebalance(vm, r, 1);
  EXPECT_EQ(result.chunks_moved, 0);
  EXPECT_EQ(result.cost, sim::Time::zero());
}

}  // namespace
}  // namespace vprobe::numa
