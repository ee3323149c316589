// Trace subsystem tests: ring semantics, hypervisor hook-up, residency and
// migration-matrix analysis, and the integrated page-migration policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/page_policy.hpp"
#include "core/vprobe_sched.hpp"
#include "numa/page_migration.hpp"
#include "runner/scenario.hpp"
#include "test_helpers.hpp"
#include "trace/analysis.hpp"
#include "trace/digest.hpp"
#include "trace/tracer.hpp"
#include "workload/spec.hpp"

namespace vprobe::trace {
namespace {

using test::FakeWork;
using test::kTestGB;

// -------------------------------------------------------------- Tracer ----

TEST(TracerTest, RecordsAndCounts) {
  Tracer tracer(16);
  tracer.record(sim::Time::ms(1), EventKind::kWake, 3, 0);
  tracer.record(sim::Time::ms(2), EventKind::kWake, 4, 1);
  tracer.record(sim::Time::ms(3), EventKind::kBlock, 3, 0);
  EXPECT_EQ(tracer.count(EventKind::kWake), 2u);
  EXPECT_EQ(tracer.count(EventKind::kBlock), 1u);
  EXPECT_EQ(tracer.total_recorded(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].vcpu, 3);
  EXPECT_EQ(events[2].kind, EventKind::kBlock);
}

TEST(TracerTest, RingKeepsMostRecent) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(sim::Time::ms(i), EventKind::kWake, i, 0);
  }
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().vcpu, 6);  // oldest retained
  EXPECT_EQ(events.back().vcpu, 9);   // newest
}

// Regression tests for the branch-based ring wrap (the index used to be
// reduced with `%`): exact-boundary behaviour must be unchanged for any
// capacity, including the degenerate single-slot ring.

TEST(TracerTest, WrapBoundaryIsExact) {
  Tracer tracer(4);
  for (int i = 0; i < 4; ++i) {
    tracer.record(sim::Time::ms(i), EventKind::kWake, i, 0);
  }
  // Exactly full: nothing dropped, oldest still slot 0.
  EXPECT_EQ(tracer.dropped(), 0u);
  auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().vcpu, 0);
  EXPECT_EQ(events.back().vcpu, 3);
  // One past full: the write lands on slot 0 again and drops one.
  tracer.record(sim::Time::ms(4), EventKind::kWake, 4, 0);
  EXPECT_EQ(tracer.dropped(), 1u);
  events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().vcpu, 1);
  EXPECT_EQ(events.back().vcpu, 4);
}

TEST(TracerTest, SmallOddCapacitySurvivesManyWraps) {
  Tracer tracer(3);
  for (int i = 0; i < 100; ++i) {
    tracer.record(sim::Time::us(i), EventKind::kBlock, i, i % 8);
    // The retained window is always the last min(i+1, 3) records, in order.
    const auto events = tracer.snapshot();
    const int want = std::min(i + 1, 3);
    ASSERT_EQ(events.size(), static_cast<std::size_t>(want)) << i;
    for (int k = 0; k < want; ++k) {
      ASSERT_EQ(events[static_cast<std::size_t>(k)].vcpu, i - want + 1 + k)
          << i;
    }
  }
  EXPECT_EQ(tracer.total_recorded(), 100u);
  EXPECT_EQ(tracer.dropped(), 97u);
}

TEST(TracerTest, SingleSlotRingKeepsOnlyNewest) {
  Tracer tracer(1);
  for (int i = 0; i < 5; ++i) {
    tracer.record(sim::Time::ms(i), EventKind::kWake, i, 0);
    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].vcpu, i);
  }
  EXPECT_EQ(tracer.dropped(), 4u);
  EXPECT_EQ(tracer.count(EventKind::kWake), 5u);
}

TEST(TracerTest, ClearResets) {
  Tracer tracer(4);
  tracer.record(sim::Time::ms(1), EventKind::kWake, 1, 0);
  tracer.clear();
  EXPECT_EQ(tracer.total_recorded(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.count(EventKind::kWake), 0u);
}

TEST(TracerTest, ZeroCapacityRejected) {
  EXPECT_THROW(Tracer(0), std::invalid_argument);
}

// -------------------------------------------------------------- Digest ----

TEST(TraceDigest, EmptyStreamIsOffsetBasis) {
  TraceDigest d;
  EXPECT_EQ(d.value(), 1469598103934665603ull);  // FNV-1a 64 offset basis
  EXPECT_EQ(d.records(), 0u);
}

TEST(TraceDigest, KnownSequenceHasFixedValue) {
  // Pins the digest definition itself: if the mixing recipe changes, every
  // checked-in golden silently invalidates — this fails first, loudly.
  TraceDigest d;
  d.add(Record{sim::Time::ms(1), EventKind::kWake, 3, 0, 0});
  d.add(Record{sim::Time::ms(2), EventKind::kSwitchIn, 3, 0, 0});
  EXPECT_EQ(d.records(), 2u);
  EXPECT_EQ(digest_hex(d.value()), "5b13821c199c72ae");
}

TEST(TraceDigest, SensitiveToEveryField) {
  const Record base{sim::Time::ms(1), EventKind::kWake, 3, 0, 0};
  const std::uint64_t ref = digest_records({&base, 1});

  Record r = base;
  r.when = sim::Time::ms(2);
  EXPECT_NE(digest_records({&r, 1}), ref);
  r = base;
  r.kind = EventKind::kBlock;
  EXPECT_NE(digest_records({&r, 1}), ref);
  r = base;
  r.vcpu = 4;
  EXPECT_NE(digest_records({&r, 1}), ref);
  r = base;
  r.pcpu = 1;
  EXPECT_NE(digest_records({&r, 1}), ref);
  r = base;
  r.aux = 1;
  EXPECT_NE(digest_records({&r, 1}), ref);
}

TEST(TraceDigest, SensitiveToOrder) {
  const Record a{sim::Time::ms(1), EventKind::kWake, 3, 0, 0};
  const Record b{sim::Time::ms(2), EventKind::kBlock, 4, 1, 0};
  TraceDigest ab, ba;
  ab.add(a);
  ab.add(b);
  ba.add(b);
  ba.add(a);
  EXPECT_NE(ab.value(), ba.value());
}

TEST(TraceDigest, HexIsSixteenLowercaseDigits) {
  EXPECT_EQ(digest_hex(0), "0000000000000000");
  EXPECT_EQ(digest_hex(0xABCDEF0123456789ull), "abcdef0123456789");
}

TEST(TracerTest, EventNames) {
  EXPECT_STREQ(to_string(EventKind::kSwitchIn), "switch-in");
  EXPECT_STREQ(to_string(EventKind::kPageMove), "page-move");
  // Every kind has its own name; only the kCount sentinel prints "?".
  std::vector<std::string> names;
  for (int k = 0; k < static_cast<int>(EventKind::kCount); ++k) {
    const std::string name = to_string(static_cast<EventKind>(k));
    EXPECT_NE(name, "?") << "kind " << k;
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 0) << name;
    names.push_back(name);
  }
  EXPECT_STREQ(to_string(EventKind::kCount), "?");
}

/// Everything Tracer::dump writes, read back through a temporary file.
std::string dump_text(const Tracer& tracer, std::size_t limit) {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) return "tmpfile failed";
  tracer.dump(f, limit);
  std::rewind(f);
  std::string out;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) out.push_back(static_cast<char>(c));
  std::fclose(f);
  return out;
}

TEST(TracerTest, DumpPrintsTheNewestRecordsThenTotals) {
  // placement_trace prints this format: one fixed-width line per retained
  // record (the newest `limit`), then the run totals.
  Tracer tracer(4);
  tracer.record(sim::Time::ms(1), EventKind::kWake, 3, 0);
  tracer.record(sim::Time::ms(2), EventKind::kSwitchIn, 3, 1);
  tracer.record(sim::Time::us(2500), EventKind::kMigration, 12, 5, 1);
  tracer.record(sim::Time::sec(2), EventKind::kDomainDestroy, -1, -1, 7);
  tracer.record(sim::Time::seconds(1234.5), EventKind::kPageMove, 4, 2, 16);
  EXPECT_EQ(dump_text(tracer, 3),
            "[    0.002500] migration  vcpu=12  pcpu=5  aux=1\n"
            "[    2.000000] domain-destroy vcpu=-1  pcpu=-1 aux=7\n"
            "[ 1234.500000] page-move  vcpu=4   pcpu=2  aux=16\n"
            "total=5 dropped=1\n");
  // The default limit covers the whole (wrapped) ring, oldest first.
  EXPECT_EQ(dump_text(tracer, 50).substr(0, 49),
            "[    0.002000] switch-in  vcpu=3   pcpu=1  aux=0\n");
  EXPECT_EQ(dump_text(Tracer(8), 50), "total=0 dropped=0\n");
}

// ------------------------------------------------------ Hypervisor hooks ----

TEST(TracerHooks, SchedulingEventsAreEmitted) {
  auto hv = test::make_credit_hv();
  Tracer tracer;
  hv->set_tracer(&tracer);
  hv::Domain& dom = hv->create_domain("VM", 1 * kTestGB, 1,
                                      numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  work.total_instructions = 30e6;
  work.burst = 10e6;
  work.block_for = sim::Time::ms(5);
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::sec(1));
  EXPECT_TRUE(work.finished);
  EXPECT_GE(tracer.count(EventKind::kWake), 3u);   // initial + 2 timed wakes
  EXPECT_GE(tracer.count(EventKind::kBlock), 2u);  // two timed blocks
  EXPECT_EQ(tracer.count(EventKind::kFinish), 1u);
  EXPECT_GE(tracer.count(EventKind::kSwitchIn),
            tracer.count(EventKind::kSwitchOut));
}

TEST(TracerHooks, DetachStopsEmission) {
  auto hv = test::make_credit_hv();
  Tracer tracer;
  hv->set_tracer(&tracer);
  hv->set_tracer(nullptr);
  hv::Domain& dom = hv->create_domain("VM", 1 * kTestGB, 1,
                                      numa::PlacementPolicy::kFillFirst, 0);
  FakeWork work;
  work.total_instructions = 1e6;
  hv->bind_work(dom.vcpu(0), work);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->engine().run_until(sim::Time::sec(1));
  EXPECT_EQ(tracer.total_recorded(), 0u);
}

// ------------------------------------------------------------ Analysis ----

TEST(Analysis, ResidencyIntegratesSwitchPairs) {
  const numa::Topology topo(numa::MachineConfig::xeon_e5620());
  std::vector<Record> records = {
      {sim::Time::ms(0), EventKind::kSwitchIn, 1, 0, 0},   // node 0
      {sim::Time::ms(100), EventKind::kSwitchOut, 1, 0, 0},
      {sim::Time::ms(100), EventKind::kSwitchIn, 1, 5, 0},  // node 1
      {sim::Time::ms(400), EventKind::kSwitchOut, 1, 5, 0},
  };
  NodeResidency residency(records, topo, sim::Time::ms(400));
  EXPECT_NEAR(residency.seconds_on(1, 0), 0.1, 1e-9);
  EXPECT_NEAR(residency.seconds_on(1, 1), 0.3, 1e-9);
  EXPECT_NEAR(residency.fraction_on(1, 1), 0.75, 1e-9);
  EXPECT_EQ(residency.vcpus(), std::vector<int>{1});
}

TEST(Analysis, ResidencyClosesOpenIntervalAtHorizon) {
  const numa::Topology topo(numa::MachineConfig::xeon_e5620());
  std::vector<Record> records = {
      {sim::Time::ms(0), EventKind::kSwitchIn, 2, 4, 0},  // node 1, never out
  };
  NodeResidency residency(records, topo, sim::Time::sec(1));
  EXPECT_NEAR(residency.seconds_on(2, 1), 1.0, 1e-9);
}

TEST(Analysis, ResidencyUnknownVcpuIsZero) {
  const numa::Topology topo(numa::MachineConfig::xeon_e5620());
  NodeResidency residency({}, topo, sim::Time::sec(1));
  EXPECT_DOUBLE_EQ(residency.seconds_on(42, 0), 0.0);
  EXPECT_DOUBLE_EQ(residency.fraction_on(42, 1), 0.0);
}

TEST(Analysis, MigrationMatrixCountsPairsAndCrossNode) {
  const numa::Topology topo(numa::MachineConfig::xeon_e5620());
  std::vector<Record> records = {
      {sim::Time::ms(1), EventKind::kMigration, 1, /*to=*/4, /*from=*/0},
      {sim::Time::ms(2), EventKind::kMigration, 1, /*to=*/0, /*from=*/4},
      {sim::Time::ms(3), EventKind::kMigration, 2, /*to=*/1, /*from=*/0},
      {sim::Time::ms(4), EventKind::kWake, 2, 1, 0},  // ignored
  };
  MigrationMatrix matrix(records, topo.num_pcpus());
  EXPECT_EQ(matrix.total(), 3u);
  EXPECT_EQ(matrix.between(0, 4), 1u);
  EXPECT_EQ(matrix.between(4, 0), 1u);
  EXPECT_EQ(matrix.between(0, 1), 1u);
  EXPECT_EQ(matrix.cross_node(topo), 2u);
}

TEST(Analysis, EndToEndResidencyMatchesCpuTime) {
  auto hv = test::make_credit_hv();
  Tracer tracer(1 << 16);
  hv->set_tracer(&tracer);
  hv::Domain& dom = hv->create_domain("VM", 2 * kTestGB, 2,
                                      numa::PlacementPolicy::kFillFirst, 0);
  FakeWork w0, w1;
  hv->bind_work(dom.vcpu(0), w0);
  hv->bind_work(dom.vcpu(1), w1);
  hv->start();
  hv->wake(dom.vcpu(0));
  hv->wake(dom.vcpu(1));
  hv->engine().run_until(sim::Time::sec(1));

  NodeResidency residency(tracer.snapshot(), hv->topology(), hv->now());
  for (std::size_t i = 0; i < 2; ++i) {
    const hv::Vcpu& v = dom.vcpu(i);
    const double traced = residency.seconds_on(v.id(), 0) +
                          residency.seconds_on(v.id(), 1);
    EXPECT_NEAR(traced, v.cpu_time.to_seconds(), 0.02) << "vcpu " << i;
  }
}

// -------------------------------------------------- Page policy (core) ----

TEST(PagePolicyTest, MemoryMapRegistration) {
  auto hv = test::make_credit_hv();
  hv::Domain& dom = hv->create_domain("VM", 2 * kTestGB, 1,
                                      numa::PlacementPolicy::kFillFirst, 0);
  wl::SpecApp app(*hv, dom, dom.vcpu(0), "milc", 0.01);
  const auto* entry = hv->memory_map().lookup(dom.vcpu(0).id());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->memory, &dom.memory());
  EXPECT_FALSE(entry->regions.empty());
  EXPECT_EQ(hv->memory_map().lookup(999), nullptr);
}

TEST(PagePolicyTest, MovesDataTowardMemoryIntensiveVcpu) {
  auto hv = test::make_credit_hv();
  hv::Domain& dom = hv->create_domain("VM", 2 * kTestGB, 1,
                                      numa::PlacementPolicy::kOnNode, 0);
  wl::SpecApp app(*hv, dom, dom.vcpu(0), "milc", 0.05);
  hv::Vcpu& v = dom.vcpu(0);
  v.vcpu_type = hv::VcpuType::kLlcThrashing;
  // Strand the VCPU on node 1 while all its data is on node 0.
  hv->start();
  app.start();
  hv->engine().run_until(sim::Time::ms(50));
  hv->migrate_to_node(v, 1);
  hv->engine().run_until(sim::Time::ms(100));
  ASSERT_EQ(hv->topology().node_of(v.pcpu), 1);

  core::PagePolicy policy;
  const auto result = policy.run(*hv);
  EXPECT_GT(result.chunks_moved, 0);
  EXPECT_GT(result.cost, sim::Time::zero());
  EXPECT_EQ(result.vcpus_considered, 1);
  EXPECT_GT(dom.memory().node_census()[1], 0)
      << "chunks must have moved to node 1";
}

TEST(PagePolicyTest, SkipsLlcFriendlyVcpus) {
  auto hv = test::make_credit_hv();
  hv::Domain& dom = hv->create_domain("VM", 2 * kTestGB, 1,
                                      numa::PlacementPolicy::kOnNode, 0);
  wl::SpecApp app(*hv, dom, dom.vcpu(0), "povray", 0.05);
  dom.vcpu(0).vcpu_type = hv::VcpuType::kLlcFriendly;
  hv->start();
  core::PagePolicy policy;
  const auto result = policy.run(*hv);
  EXPECT_EQ(result.vcpus_considered, 0);
  EXPECT_EQ(result.chunks_moved, 0);
}

TEST(PagePolicyTest, RespectsMachineBudget) {
  // Six stranded milc VCPUs, one 175-chunk region each: the migrator would
  // move 16 chunks per region (96 in all), but the machine budget stops the
  // pass once 64 have moved, before the fifth VCPU is considered.
  constexpr int kStranded = 6;
  static_assert(kStranded * numa::PageMigrator::kMaxChunksPerRound >
                core::PagePolicy::kMachineBudgetPerPeriod);
  auto hv = test::make_credit_hv();
  hv::Domain& dom = hv->create_domain("VM", 6 * kTestGB, kStranded,
                                      numa::PlacementPolicy::kOnNode, 0);
  std::vector<std::unique_ptr<wl::SpecApp>> apps;
  for (std::size_t i = 0; i < kStranded; ++i) {
    apps.push_back(std::make_unique<wl::SpecApp>(*hv, dom, dom.vcpu(i), "milc", 0.05));
    dom.vcpu(i).vcpu_type = hv::VcpuType::kLlcThrashing;
    hv->migrate_to_node(dom.vcpu(i), 1);
  }
  core::PagePolicy policy;
  const auto result = policy.run(*hv);
  EXPECT_EQ(result.chunks_moved, core::PagePolicy::kMachineBudgetPerPeriod);
  EXPECT_EQ(result.vcpus_considered,
            core::PagePolicy::kMachineBudgetPerPeriod /
                numa::PageMigrator::kMaxChunksPerRound);
  EXPECT_EQ(result.cost,
            numa::PageMigrator::kCostPerChunk * core::PagePolicy::kMachineBudgetPerPeriod);
}

TEST(PagePolicyTest, VprobeIntegrationReducesRemoteAccesses) {
  auto run_stranded = [&](bool page_migration) {
    core::VprobeScheduler::Options opts;
    opts.enable_partitioning = false;  // isolate the page-policy effect
    opts.enable_numa_balance = false;
    opts.page_migration = page_migration;
    opts.sampling_period = sim::Time::ms(200);
    hv::Hypervisor::Config cfg;
    auto hv = std::make_unique<hv::Hypervisor>(
        cfg, std::make_unique<core::VprobeScheduler>(opts));
    // Background spinners keep every PCPU busy, so the stranded VCPU is not
    // simply stolen back to its data's node.
    hv::Domain& bg = hv->create_domain("BG", 1 * kTestGB, 8,
                                       numa::PlacementPolicy::kFillFirst, 0);
    std::vector<std::unique_ptr<FakeWork>> spinners;
    for (std::size_t i = 0; i < 8; ++i) {
      spinners.push_back(std::make_unique<FakeWork>());
      hv->bind_work(bg.vcpu(i), *spinners.back());
    }
    hv::Domain& dom = hv->create_domain("VM", 2 * kTestGB, 1,
                                        numa::PlacementPolicy::kOnNode, 0);
    wl::SpecApp app(*hv, dom, dom.vcpu(0), "milc", 0.05);
    dom.vcpu(0).vcpu_type = hv::VcpuType::kLlcThrashing;
    hv->migrate_to_node(dom.vcpu(0), 1);  // stranded from its data
    hv->start();
    for (std::size_t i = 0; i < 8; ++i) hv->wake(bg.vcpu(i));
    app.start();
    runner::run_until(*hv, [&] { return app.finished(); }, sim::Time::sec(600));
    return app.runtime().to_seconds();
  };
  const double without = run_stranded(false);
  const double with = run_stranded(true);
  EXPECT_LT(with, without * 0.95)
      << "page migration must recover a stranded VCPU's locality";
}

}  // namespace
}  // namespace vprobe::trace
