// Unit tests for the execution cost model: warmth, contention aggregation,
// and the CPI model the whole evaluation rests on.
#include <gtest/gtest.h>

#include <array>

#include "perf/contention.hpp"
#include "perf/cost_model.hpp"
#include "perf/warmth.hpp"

namespace vprobe::perf {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

// --------------------------------------------------------- CacheWarmth ----

TEST(CacheWarmth, StartsWarm) {
  CacheWarmth w;
  EXPECT_DOUBLE_EQ(w.value(), 1.0);
  EXPECT_DOUBLE_EQ(w.extra_miss_rate(), 0.0);
}

TEST(CacheWarmth, CrossNodeMigrationFlushesEverything) {
  CacheWarmth w;
  w.on_migration(/*cross_node=*/true);
  EXPECT_DOUBLE_EQ(w.value(), 0.0);
  EXPECT_DOUBLE_EQ(w.extra_miss_rate(), CacheWarmth::kColdMissBoost);
}

TEST(CacheWarmth, SameNodeMigrationKeepsLlcShare) {
  CacheWarmth w;
  w.on_migration(/*cross_node=*/false);
  EXPECT_DOUBLE_EQ(w.value(), 0.75);
}

TEST(CacheWarmth, ExecutionWarmsBackUp) {
  CacheWarmth w;
  w.on_migration(true);
  w.on_executed(CacheWarmth::kRefillInstructions);
  EXPECT_NEAR(w.value(), 1.0 - std::exp(-1.0), 1e-6);
  w.on_executed(CacheWarmth::kRefillInstructions * 10);
  EXPECT_GT(w.value(), 0.99);
}

TEST(CacheWarmth, RepeatedMigrationCompounds) {
  CacheWarmth w;
  w.on_migration(false);
  w.on_migration(false);
  EXPECT_NEAR(w.value(), 0.75 * 0.75, 1e-12);
}

// -------------------------------------------------------- MachineState ----

TEST(MachineState, ConstructsPerNodeComponents) {
  MachineState state(numa::MachineConfig::xeon_e5620());
  EXPECT_EQ(state.num_nodes(), 2);
  EXPECT_DOUBLE_EQ(state.llc(0).capacity_bytes(), 12.0 * kMB);
  EXPECT_DOUBLE_EQ(state.imc(1).bandwidth_bytes_per_s(), 25.6e9);
}

TEST(MachineState, OccupantInOutTracksLlc) {
  MachineState state(numa::MachineConfig::xeon_e5620());
  state.occupant_in(0, 1, 20.0 * kMB);
  EXPECT_GT(state.llc(0).pressure(), 1.0);
  EXPECT_DOUBLE_EQ(state.llc(1).pressure(), 0.0);
  state.occupant_out(0, 1);
  EXPECT_DOUBLE_EQ(state.llc(0).pressure(), 0.0);
}

// ----------------------------------------------------------- CostModel ----

class CostModelTest : public ::testing::Test {
 protected:
  numa::MachineConfig cfg_ = numa::MachineConfig::xeon_e5620();
  MachineState state_{cfg_};
  CostModel model_{cfg_, state_};

  SliceProfile cpu_bound() const {
    SliceProfile p;
    p.rpti = 0.0;
    return p;
  }

  SliceProfile memory_bound(std::span<const double> frac) const {
    SliceProfile p;
    p.rpti = 20.0;
    p.solo_miss = 0.5;
    p.miss_sensitivity = 0.2;
    p.working_set_bytes = 8.0 * kMB;
    p.node_fractions = frac;
    return p;
  }
};

TEST_F(CostModelTest, CpuBoundRunsAtBaseCpi) {
  const double nspi = model_.ns_per_instr(cpu_bound(), 0, 0.0, sim::Time::zero());
  EXPECT_DOUBLE_EQ(nspi, cfg_.base_cpi / cfg_.clock_ghz);
}

TEST_F(CostModelTest, MemoryBoundIsSlower) {
  const std::array<double, 2> local = {1.0, 0.0};
  const double cpu = model_.ns_per_instr(cpu_bound(), 0, 0.0, sim::Time::zero());
  const double mem = model_.ns_per_instr(memory_bound(local), 0, 0.0, sim::Time::zero());
  EXPECT_GT(mem, cpu * 2);
}

TEST_F(CostModelTest, RemoteDataIsSlowerThanLocal) {
  const std::array<double, 2> local = {1.0, 0.0};
  const std::array<double, 2> remote = {0.0, 1.0};
  const double l = model_.ns_per_instr(memory_bound(local), 0, 0.0, sim::Time::zero());
  const double r = model_.ns_per_instr(memory_bound(remote), 0, 0.0, sim::Time::zero());
  EXPECT_GT(r, l * 1.2);
}

TEST_F(CostModelTest, ColdCacheIsSlower) {
  const std::array<double, 2> local = {1.0, 0.0};
  const double warm = model_.ns_per_instr(memory_bound(local), 0, 0.0, sim::Time::zero());
  const double cold = model_.ns_per_instr(memory_bound(local), 0, 0.3, sim::Time::zero());
  EXPECT_GT(cold, warm);
}

TEST_F(CostModelTest, LlcContentionSlowsFittingApps) {
  const std::array<double, 2> local = {1.0, 0.0};
  SliceProfile p = memory_bound(local);
  p.solo_miss = 0.1;
  p.miss_sensitivity = 0.6;
  const double alone = model_.ns_per_instr(p, 0, 0.0, sim::Time::zero());
  // A 30 MB co-runner overcommits the 12 MB LLC badly.
  state_.occupant_in(0, 99, 30.0 * kMB);
  state_.occupant_in(0, 98, 8.0 * kMB);
  const double contended = model_.ns_per_instr(p, 0, 0.0, sim::Time::zero());
  EXPECT_GT(contended, alone * 1.5);
}

TEST_F(CostModelTest, UnplacedDataTreatedAsLocal) {
  SliceProfile p = memory_bound({});
  const std::array<double, 2> local = {1.0, 0.0};
  const double implicit = model_.ns_per_instr(p, 0, 0.0, sim::Time::zero());
  const double explicit_local =
      model_.ns_per_instr(memory_bound(local), 0, 0.0, sim::Time::zero());
  EXPECT_DOUBLE_EQ(implicit, explicit_local);
}

TEST_F(CostModelTest, RunRespectsInstructionBudget) {
  const std::array<double, 2> local = {1.0, 0.0};
  const auto r = model_.run(memory_bound(local), 0, 0.0, 1e6,
                            sim::Time::sec(10), sim::Time::zero());
  EXPECT_DOUBLE_EQ(r.instructions, 1e6);
  EXPECT_LT(r.elapsed, sim::Time::sec(10));
}

TEST_F(CostModelTest, RunRespectsWallBudget) {
  const std::array<double, 2> local = {1.0, 0.0};
  const auto r = model_.run(memory_bound(local), 0, 0.0, 1e15,
                            sim::Time::ms(1), sim::Time::zero());
  EXPECT_LE(r.elapsed, sim::Time::ms(1));
  EXPECT_GT(r.instructions, 0.0);
  EXPECT_LT(r.instructions, 1e15);
}

TEST_F(CostModelTest, CountersAreConsistent) {
  const std::array<double, 2> frac = {0.75, 0.25};
  const auto r = model_.run(memory_bound(frac), 0, 0.0, 1e7,
                            sim::Time::sec(1), sim::Time::zero());
  const auto& c = r.counters;
  EXPECT_DOUBLE_EQ(c.instr_retired, r.instructions);
  EXPECT_NEAR(c.llc_refs, r.instructions * 20.0 / 1000.0, 1.0);
  EXPECT_LE(c.llc_misses, c.llc_refs);
  EXPECT_NEAR(c.mem_accesses[0] + c.mem_accesses[1], c.llc_misses, 1e-6);
  EXPECT_NEAR(c.mem_accesses[1] / c.llc_misses, 0.25, 1e-9);
  // Running on node 0: remote accesses are exactly the node-1 share.
  EXPECT_NEAR(c.remote_accesses, c.mem_accesses[1], 1e-9);
}

TEST_F(CostModelTest, RunDepositsImcTraffic) {
  const std::array<double, 2> local = {1.0, 0.0};
  const auto before = state_.imc(0).total_bytes();
  model_.run(memory_bound(local), 0, 0.0, 1e8, sim::Time::sec(1), sim::Time::zero());
  EXPECT_GT(state_.imc(0).total_bytes(), before);
  EXPECT_DOUBLE_EQ(state_.imc(1).total_bytes(), 0.0);
}

TEST_F(CostModelTest, RemoteRunDepositsInterconnectTraffic) {
  const std::array<double, 2> remote = {0.0, 1.0};
  model_.run(memory_bound(remote), 0, 0.0, 1e8, sim::Time::sec(1), sim::Time::zero());
  EXPECT_GT(state_.interconnect().total_bytes(), 0.0);
}

TEST_F(CostModelTest, ZeroBudgetsReturnNothing) {
  const auto a = model_.run(cpu_bound(), 0, 0.0, 0.0, sim::Time::sec(1), sim::Time::zero());
  EXPECT_DOUBLE_EQ(a.instructions, 0.0);
  const auto b = model_.run(cpu_bound(), 0, 0.0, 1e6, sim::Time::zero(), sim::Time::zero());
  EXPECT_DOUBLE_EQ(b.instructions, 0.0);
}

}  // namespace
}  // namespace vprobe::perf
