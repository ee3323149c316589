// Rate-cache suite: the contention-state version counters, the cost-model
// memo, and the --no-rate-cache escape hatch.
//
// The memo's correctness contract is absolute — a cached result may only be
// served when it is provably bit-identical to a full recomputation — so the
// tests here are exact-equality tests (EXPECT_EQ on doubles, digest
// comparison on full trace streams), never EXPECT_NEAR.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "check/invariants.hpp"
#include "numa/interconnect.hpp"
#include "numa/llc_model.hpp"
#include "numa/machine_config.hpp"
#include "numa/mem_controller.hpp"
#include "numa/rate_tracker.hpp"
#include "perf/contention.hpp"
#include "perf/cost_model.hpp"
#include "runner/churn.hpp"
#include "runner/scenario.hpp"
#include "scenario_helpers.hpp"
#include "test_helpers.hpp"
#include "trace/digest.hpp"
#include "trace/tracer.hpp"
#include "workload/app.hpp"
#include "workload/profile.hpp"

namespace vprobe {
namespace {

using sim::Time;

// ------------------------------------------------- version counters ----
//
// Every mutation path of every contention component must bump its version;
// every pure read must not.  The cost-model memo is sound only under this
// exact discipline.

TEST(VersionCounters, RateTrackerBumpsOnRecordAndReset) {
  numa::RateTracker t;
  EXPECT_EQ(t.version(), 0u);
  t.record(100.0, Time::ms(1));
  EXPECT_EQ(t.version(), 1u);
  t.record(0.0, Time::ms(2));  // zero-amount records still mutate FP state
  EXPECT_EQ(t.version(), 2u);
  (void)t.rate(Time::ms(3));  // reads never bump
  EXPECT_EQ(t.version(), 2u);
  t.reset();
  EXPECT_EQ(t.version(), 3u);
}

TEST(VersionCounters, LlcModelBumpsOnEveryEffectiveMutation) {
  numa::LlcModel llc(12ll << 20);
  const std::uint64_t v0 = llc.version();
  llc.set_demand(1, 4.0e6);  // insert
  const std::uint64_t v1 = llc.version();
  EXPECT_GT(v1, v0);
  llc.set_demand(1, 6.0e6);  // update
  const std::uint64_t v2 = llc.version();
  EXPECT_GT(v2, v1);
  (void)llc.overcommit();  // reads never bump
  (void)llc.miss_rate(0.1, 0.5);
  EXPECT_EQ(llc.version(), v2);
  llc.remove(1);
  const std::uint64_t v3 = llc.version();
  EXPECT_GT(v3, v2);
  llc.remove(1);  // absent occupant: no state change, no bump
  EXPECT_EQ(llc.version(), v3);
  EXPECT_EQ(llc.occupants(), 0);
  EXPECT_DOUBLE_EQ(llc.total_demand_bytes(), 0.0);
}

TEST(VersionCounters, LlcModelTotalsSurviveChurn) {
  // The flat-vector rewrite must keep the total-demand arithmetic of the
  // old map exactly: adds and removes in mixed order, including swap-erase
  // from the middle.
  numa::LlcModel llc(12ll << 20);
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

TEST(VersionCounters, MemControllerBumpsOnTrafficAndLimits) {
  numa::MemController imc(25.6e9);
  EXPECT_TRUE(imc.idle());
  const std::uint64_t v0 = imc.version();
  imc.record_traffic(1.0e6, Time::ms(1), Time::us(10));
  EXPECT_GT(imc.version(), v0);
  EXPECT_FALSE(imc.idle());
  const std::uint64_t v1 = imc.version();
  (void)imc.latency_factor(Time::ms(2));  // reads never bump
  (void)imc.utilization(Time::ms(2));
  EXPECT_EQ(imc.version(), v1);
  imc.set_limits(0.9, 6.0);
  EXPECT_GT(imc.version(), v1);
}

TEST(VersionCounters, InterconnectBumpsOnCrossNodeTrafficOnly) {
  const auto cfg = numa::MachineConfig::xeon_e5620();
  numa::Interconnect ic(cfg);
  EXPECT_TRUE(ic.idle());
  const std::uint64_t v0 = ic.version();
  ic.record_traffic(0, 0, 1.0e6, Time::ms(1), Time::us(10));  // local: no-op
  EXPECT_EQ(ic.version(), v0);
  EXPECT_TRUE(ic.idle());
  ic.record_traffic(0, 1, 1.0e6, Time::ms(1), Time::us(10));
  EXPECT_GT(ic.version(), v0);
  EXPECT_FALSE(ic.idle());
  const std::uint64_t v1 = ic.version();
  (void)ic.utilization(0, 1, Time::ms(2));  // reads never bump
  (void)ic.remote_extra_ns(0, 1, Time::ms(2));
  EXPECT_EQ(ic.version(), v1);
}

TEST(VersionCounters, MachineStateAggregatesComponentVersions) {
  perf::MachineState state(numa::MachineConfig::xeon_e5620());
  EXPECT_TRUE(state.fabric_idle());
  const std::uint64_t v0 = state.version();
  const std::uint64_t f0 = state.fabric_version();

  // LLC occupancy moves version() but not fabric_version().
  state.occupant_in(0, 42, 4.0e6);
  EXPECT_GT(state.version(), v0);
  EXPECT_EQ(state.fabric_version(), f0);
  EXPECT_TRUE(state.fabric_idle());
  const std::uint64_t v1 = state.version();
  state.occupant_out(0, 42);
  EXPECT_GT(state.version(), v1);

  // IMC traffic moves both, and the fabric is no longer idle.
  const std::uint64_t v2 = state.version();
  state.imc(1).record_traffic(1.0e6, Time::ms(1), Time::us(10));
  EXPECT_GT(state.version(), v2);
  EXPECT_GT(state.fabric_version(), f0);
  EXPECT_FALSE(state.fabric_idle());

  // Interconnect traffic likewise.
  const std::uint64_t f1 = state.fabric_version();
  state.interconnect().record_traffic(0, 1, 1.0e6, Time::ms(1), Time::us(10));
  EXPECT_GT(state.fabric_version(), f1);
}

// ------------------------------------------------------ decay memo ----

TEST(DecayMemo, CachedAndUncachedTrackersAgreeBitwise) {
  // Same record/read sequence through a memoizing and a non-memoizing
  // tracker, with dt values that repeat (memo hits) and collide in the
  // direct-mapped table (evictions): every read must agree exactly.
  numa::RateTracker cached;
  numa::RateTracker plain;
  plain.set_decay_cache(false);
  std::int64_t t_ns = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t step = 1000 + 997 * (i % 37);  // repeating dt mix
    t_ns += step;
    const Time now = Time::ns(t_ns);
    if (i % 3 == 0) {
      cached.record(1.0e5 + i, now);
      plain.record(1.0e5 + i, now);
    }
    ASSERT_EQ(cached.rate(now + Time::ns(step)), plain.rate(now + Time::ns(step)))
        << "step " << i;
  }
}

// --------------------------------------------------- cost-model memo ----

struct MemoFixture : ::testing::Test {
  MemoFixture()
      : cfg(numa::MachineConfig::xeon_e5620()), state(cfg), model(cfg, state) {
    model.resize_cache(8);
    profile.rpti = 20.0;
    profile.solo_miss = 0.2;
    profile.miss_sensitivity = 0.4;
    profile.working_set_bytes = 8.0e6;
    profile.node_fractions = fractions;
  }

  std::uint64_t hits() const { return model.cache_stats().hits; }
  std::uint64_t misses() const { return model.cache_stats().misses; }

  numa::MachineConfig cfg;
  perf::MachineState state;
  perf::CostModel model;
  std::array<double, 2> fractions{0.75, 0.25};
  perf::SliceProfile profile;
};

TEST_F(MemoFixture, RepeatLookupHitsAndMatchesUncachedExactly) {
  const double direct = model.ns_per_instr(profile, 0, 0.0, Time::ms(1));
  const double first = model.ns_per_instr_cached(0, profile, 0, 0.0, Time::ms(1));
  const double second = model.ns_per_instr_cached(0, profile, 0, 0.0, Time::ms(1));
  EXPECT_EQ(first, direct);   // bit-identical, not approximately equal
  EXPECT_EQ(second, direct);
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(misses(), 1u);
}

TEST_F(MemoFixture, IdleFabricSnapshotsAreTimeInvariant) {
  (void)model.ns_per_instr_cached(0, profile, 0, 0.0, Time::ms(1));
  // No traffic anywhere: the same inputs at any later time must hit and
  // must still equal the direct evaluation at that time.
  const double later_direct = model.ns_per_instr(profile, 0, 0.0, Time::sec(5));
  const double later_cached =
      model.ns_per_instr_cached(0, profile, 0, 0.0, Time::sec(5));
  EXPECT_EQ(later_cached, later_direct);
  EXPECT_EQ(hits(), 1u);
}

TEST_F(MemoFixture, BusyFabricSnapshotsAreTimeBound) {
  state.imc(0).record_traffic(5.0e7, Time::ms(1), Time::us(10));
  (void)model.ns_per_instr_cached(0, profile, 0, 0.0, Time::ms(2));
  // Same now: hit.
  (void)model.ns_per_instr_cached(0, profile, 0, 0.0, Time::ms(2));
  EXPECT_EQ(hits(), 1u);
  // Different now with live traffic: the rates genuinely decay — miss, and
  // the recomputation matches the direct path exactly.
  const double direct = model.ns_per_instr(profile, 0, 0.0, Time::ms(3));
  EXPECT_EQ(model.ns_per_instr_cached(0, profile, 0, 0.0, Time::ms(3)), direct);
  EXPECT_EQ(misses(), 2u);
}

TEST_F(MemoFixture, EveryMutationPathInvalidates) {
  const Time now = Time::ms(1);
  auto lookup = [&] { (void)model.ns_per_instr_cached(0, profile, 0, 0.0, now); };
  lookup();  // fill
  EXPECT_EQ(misses(), 1u);

  state.occupant_in(0, 7, 2.0e6);  // LLC demand on the run node
  lookup();
  EXPECT_EQ(misses(), 2u);

  state.imc(1).record_traffic(1.0e6, now, Time::us(10));  // remote-home IMC
  lookup();
  EXPECT_EQ(misses(), 3u);

  state.interconnect().record_traffic(0, 1, 1.0e6, now, Time::us(10));
  lookup();
  EXPECT_EQ(misses(), 4u);

  state.imc(0).set_limits(0.9, 6.0);  // config change, not just traffic
  lookup();
  EXPECT_EQ(misses(), 5u);

  state.occupant_out(0, 7);  // removal invalidates like insertion
  lookup();
  EXPECT_EQ(misses(), 6u);

  lookup();  // and with the machine still again, the memo hits again
  EXPECT_EQ(hits(), 1u);
}

TEST_F(MemoFixture, InputKeyChangesInvalidate) {
  const Time now = Time::ms(1);
  (void)model.ns_per_instr_cached(0, profile, 0, 0.0, now);
  (void)model.ns_per_instr_cached(0, profile, 0, 0.01, now);  // cold miss
  EXPECT_EQ(misses(), 2u);
  profile.rpti = 21.0;
  (void)model.ns_per_instr_cached(0, profile, 0, 0.0, now);
  EXPECT_EQ(misses(), 3u);
  fractions = {0.5, 0.5};
  profile.rpti = 20.0;
  (void)model.ns_per_instr_cached(0, profile, 0, 0.0, now);
  EXPECT_EQ(misses(), 4u);
  (void)model.ns_per_instr_cached(0, profile, 1, 0.0, now);  // run node
  EXPECT_EQ(misses(), 5u);
  EXPECT_EQ(hits(), 0u);
}

TEST_F(MemoFixture, SlotsAreIndependentAndOutOfRangeFallsBack) {
  const Time now = Time::ms(1);
  (void)model.ns_per_instr_cached(0, profile, 0, 0.0, now);
  (void)model.ns_per_instr_cached(1, profile, 0, 0.0, now);  // own slot: miss
  EXPECT_EQ(misses(), 2u);
  (void)model.ns_per_instr_cached(1, profile, 0, 0.0, now);
  EXPECT_EQ(hits(), 1u);
  // Out-of-range slots use the shared fallback slot rather than crashing.
  const double direct = model.ns_per_instr(profile, 0, 0.0, now);
  EXPECT_EQ(model.ns_per_instr_cached(1000, profile, 0, 0.0, now), direct);
  EXPECT_EQ(model.ns_per_instr_cached(1000, profile, 0, 0.0, now), direct);
  EXPECT_EQ(hits(), 2u);
}

TEST_F(MemoFixture, DisabledCacheRecomputesButStaysBitIdentical) {
  model.set_cache_enabled(false);
  const Time now = Time::ms(1);
  const double direct = model.ns_per_instr(profile, 0, 0.0, now);
  EXPECT_EQ(model.ns_per_instr_cached(0, profile, 0, 0.0, now), direct);
  EXPECT_EQ(model.ns_per_instr_cached(0, profile, 0, 0.0, now), direct);
  EXPECT_EQ(hits(), 0u);
  EXPECT_EQ(misses(), 2u);
}

TEST_F(MemoFixture, RunCachedMatchesRunExactlyIncludingDeposits) {
  // Two identical machines, one driven through run(), one through
  // run_cached() (prediction first, as the hypervisor does): results and
  // the traffic they deposit must agree bit-for-bit.
  perf::MachineState state2(cfg);
  perf::CostModel plain(cfg, state2);

  Time now = Time::ms(1);
  for (int i = 0; i < 50; ++i) {
    (void)model.ns_per_instr_cached(0, profile, i % 2, 0.0, now);
    const auto a = model.run_cached(0, profile, i % 2, 0.0, 1.0e6,
                                    Time::ms(30), now);
    (void)plain.ns_per_instr(profile, i % 2, 0.0, now);
    const auto b = plain.run(profile, i % 2, 0.0, 1.0e6, Time::ms(30), now);
    ASSERT_EQ(a.instructions, b.instructions) << i;
    ASSERT_EQ(a.ns_per_instr, b.ns_per_instr) << i;
    ASSERT_EQ(a.elapsed, b.elapsed) << i;
    ASSERT_EQ(a.counters.llc_misses, b.counters.llc_misses) << i;
    now = now + a.elapsed + Time::us(3);
  }
  EXPECT_GT(hits(), 0u);  // the settlements found their prediction snapshots
  for (int n = 0; n < state.num_nodes(); ++n) {
    ASSERT_EQ(state.imc(n).total_bytes(), state2.imc(n).total_bytes()) << n;
  }
  ASSERT_EQ(state.interconnect().total_bytes(),
            state2.interconnect().total_bytes());
}

TEST_F(MemoFixture, MinNsPerInstrIsAHardFloor) {
  // The slice-clamp fast path in the hypervisor is sound only if no
  // profile/contention combination can undercut base_cpi/clock.
  state.occupant_in(0, 1, 30.0e6);  // heavy LLC pressure
  state.imc(0).record_traffic(2.0e8, Time::ms(1), Time::us(10));
  state.interconnect().record_traffic(0, 1, 2.0e8, Time::ms(1), Time::us(10));
  const double floor = model.min_ns_per_instr();
  perf::SliceProfile zero;  // cheapest possible: no memory references at all
  EXPECT_GE(model.ns_per_instr(zero, 0, 0.0, Time::ms(2)), floor);
  EXPECT_EQ(model.ns_per_instr(zero, 0, 0.0, Time::ms(2)), floor);
  EXPECT_GT(model.ns_per_instr(profile, 0, 0.3, Time::ms(2)), floor);
}

// ------------------------------------------------ burst-plan reuse ----

TEST(BurstReuse, FakeWorkClaimsReuseOnlyWhenNothingMoved) {
  test::FakeWork w;
  w.rpti = 5.0;
  EXPECT_FALSE(w.burst_unchanged(Time::ms(1)));  // nothing recorded yet
  (void)w.next_burst(Time::ms(1));
  EXPECT_TRUE(w.burst_unchanged(Time::ms(2)));
  (void)w.advance(100.0, Time::ms(2));  // progress invalidates
  EXPECT_FALSE(w.burst_unchanged(Time::ms(2)));
  (void)w.next_burst(Time::ms(2));
  EXPECT_TRUE(w.burst_unchanged(Time::ms(3)));
  w.rpti = 6.0;  // knob mutation invalidates
  EXPECT_FALSE(w.burst_unchanged(Time::ms(3)));
}

TEST(BurstReuse, ComputeThreadNeverClaimsReuseWithJitterOrFirstTouch) {
  auto hv = test::make_credit_hv();
  hv::Domain& dom = hv->create_domain("VM1", 2 * test::kTestGB, 2,
                                      numa::PlacementPolicy::kFillFirst, 0);
  const wl::AppProfile& prof = wl::profile("soplex");

  auto make_thread = [&](double burstiness) {
    wl::ComputeThread::Init init;
    init.profile = &prof;
    init.memory = &dom.memory();
    init.region = dom.memory().alloc_region(64ll << 20);
    init.total_instructions = 1.0e12;
    init.burstiness = burstiness;
    return wl::ComputeThread(init);
  };

  // Burstiness draws a jitter per next_burst: skipping the call would shift
  // the RNG stream, so reuse must never be claimed.
  wl::ComputeThread jittery = make_thread(0.15);
  jittery.bind(*hv, dom.vcpu(0));
  (void)jittery.next_burst(Time::ms(1));
  EXPECT_FALSE(jittery.burst_unchanged(Time::ms(1)));

  // Deterministic thread: reuse is claimed until progress moves.
  wl::ComputeThread steady = make_thread(0.0);
  steady.bind(*hv, dom.vcpu(1));
  (void)steady.next_burst(Time::ms(1));
  EXPECT_TRUE(steady.burst_unchanged(Time::ms(1)));
  (void)steady.advance(1000.0, Time::ms(2));
  EXPECT_FALSE(steady.burst_unchanged(Time::ms(2)));
}

TEST(BurstReuse, StalePlanIsNotReusedAfterCrossPcpuBounce) {
  // Regression: a VCPU caches a plan on PCPU A, advances there, produces a
  // fresh plan on PCPU B, and leaves B through a zero-instruction segment
  // (descheduled inside the switch-in stall, so advance(0.0) keeps every
  // progress counter bit-equal to the latest next_burst snapshot).  Back on
  // A, burst_unchanged() truthfully reports the *latest* plan would repeat —
  // but A still holds the older one, stale by everything executed since.
  // The burst-sequence guard must reject it; without the guard the stale
  // instruction cap binds and the thread overshoots its total.
  hv::Hypervisor::Config cfg;
  cfg.seed = 1;
  cfg.slice = Time::ms(100);           // whole burst fits in one slice
  cfg.context_switch_cost = Time::us(50);  // wide zero-work window after switch-in
  auto hv = std::make_unique<hv::Hypervisor>(
      cfg, std::make_unique<test::FifoScheduler>());
  hv::Domain& dom = hv->create_domain("VM1", test::kTestGB, 1,
                                      numa::PlacementPolicy::kFillFirst, 0);
  hv::Vcpu& v = dom.vcpu(0);
  test::FakeWork w;
  w.total_instructions = 100.0e6;  // pure CPU: ~40 ms of work
  hv->bind_work(v, w);
  hv->start();

  const numa::PcpuId pa = 0;
  const numa::PcpuId pb = 1;
  v.pin_to(pa);
  hv->wake(v);
  hv->engine().run_until(Time::ms(10));
  ASSERT_EQ(v.state, hv::VcpuState::kRunning);
  ASSERT_EQ(v.pcpu, pa);

  // Deschedule mid-segment: A keeps its cached plan, now permanently stale.
  hv->pause_domain(dom);
  const double executed_on_a = w.executed;
  ASSERT_GT(executed_on_a, 0.0);

  // One fresh next_burst on B, then deschedule before any work retires.
  v.pin_to(pb);
  hv->resume_domain(dom);
  hv->engine().run_until(Time::ms(10) + Time::us(10));
  ASSERT_EQ(v.pcpu, pb);
  hv->pause_domain(dom);
  ASSERT_EQ(w.executed, executed_on_a) << "segment on B retired work";
  ASSERT_TRUE(w.burst_unchanged(hv->now()));  // reuse-eligible w.r.t. B's plan

  // Return to A and run to completion: the guard must force a fresh plan.
  v.pin_to(pa);
  hv->resume_domain(dom);
  hv->engine().run_until(Time::ms(300));
  EXPECT_TRUE(w.finished);
  EXPECT_LE(w.executed, w.total_instructions + 1.0)
      << "stale burst plan reused after cross-PCPU bounce";
}

// ------------------------------------- hypervisor-level integration ----

TEST(RateCacheHypervisor, DestroyDomainTeardownBumpsVersions) {
  auto hv = test::make_credit_hv(5);
  hv::Domain& dom = hv->create_domain("VM1", 2 * test::kTestGB, 4,
                                      numa::PlacementPolicy::kFillFirst);
  std::vector<std::unique_ptr<test::FakeWork>> works;
  for (auto* vcpu : test::domain_vcpus(dom)) {
    auto w = std::make_unique<test::FakeWork>();
    w->rpti = 10.0;
    w->solo_miss = 0.1;
    w->working_set = 4.0e6;
    hv->bind_work(*vcpu, *w);
    works.push_back(std::move(w));
  }
  hv->start();
  for (auto* vcpu : test::domain_vcpus(dom)) hv->wake(*vcpu);
  hv->engine().run_until(sim::Time::ms(50));

  // VCPUs are mid-slice: teardown must settle their segments (fabric
  // deposits) and pull their LLC occupancy (llc bumps).
  const std::uint64_t v0 = hv->machine_state().version();
  hv->destroy_domain(dom);
  EXPECT_GT(hv->machine_state().version(), v0);
  hv->engine().run_until(sim::Time::ms(60));  // drains without incident
}

TEST(RateCacheHypervisor, MiniScenarioHitsTheMemo) {
  test::MiniScenario sc =
      test::make_mini_scenario(runner::SchedKind::kCredit, 5);
  test::run_mini(sc, sim::Time::ms(100));
  const auto& stats = sc.hv->cost_model().cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  // On this 1.5×-oversubscribed machine most settlements race other PCPUs'
  // traffic deposits, and the slice-clamp fast path keeps the easy
  // predictions away from the memo entirely — a low-but-nonzero rate is the
  // honest expectation here; see docs/PERF.md.
  EXPECT_GT(stats.hit_rate(), 0.03);
}

// ------------------------------------------- differential property ----
//
// The escape hatch is the proof obligation: every scheduler, on a churning
// randomized scenario, must produce a byte-identical event stream with the
// cache on and off.  Digests cover every scheduling decision, so any
// approximate reuse anywhere in the stack trips this.

using DiffParam = std::tuple<runner::SchedKind, std::uint64_t>;

class RateCacheDifferential : public ::testing::TestWithParam<DiffParam> {};

struct DigestResult {
  std::uint64_t records = 0;
  std::string digest;
  std::uint64_t cache_hits = 0;
};

DigestResult run_churning(runner::SchedKind kind, std::uint64_t seed,
                          bool rate_cache) {
  trace::Tracer tracer(1 << 20);
  runner::SchedulerOptions opts;
  opts.sampling_period = sim::Time::ms(50);
  opts.rate_cache = rate_cache;
  test::MiniScenario sc = test::make_mini_scenario(kind, seed, opts);
  check::InvariantChecker checker;
  checker.attach(*sc.hv);
  sc.hv->set_tracer(&tracer);

  runner::ChurnOptions copts;
  copts.seed = seed;
  copts.start_after = sim::Time::ms(10);
  copts.mean_interarrival = sim::Time::ms(30);
  copts.mean_lifetime = sim::Time::ms(70);
  copts.pause_probability = 0.35;
  copts.mean_pause = sim::Time::ms(15);
  copts.max_live = 3;
  runner::ChurnDriver churn(*sc.fleet, copts);
  churn.start();
  test::run_mini(sc, sim::Time::ms(250));
  churn.drain();
  sc.hv->set_tracer(nullptr);
  checker.expect_ok();
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_GT(churn.arrivals(), 0u) << "churn never fired";

  const auto records = tracer.snapshot();
  DigestResult r;
  r.records = records.size();
  r.digest = trace::digest_hex(trace::digest_records(records));
  r.cache_hits = sc.hv->cost_model().cache_stats().hits;
  return r;
}

TEST_P(RateCacheDifferential, CacheOnAndOffProduceIdenticalStreams) {
  const auto [kind, seed] = GetParam();
  const DigestResult on = run_churning(kind, seed, true);
  const DigestResult off = run_churning(kind, seed, false);
  ASSERT_GT(on.records, 0u);
  EXPECT_EQ(on.records, off.records) << to_string(kind) << " seed " << seed;
  EXPECT_EQ(on.digest, off.digest)
      << to_string(kind) << " seed " << seed
      << ": rate cache changed behaviour — reuse was not bit-identical";
  EXPECT_GT(on.cache_hits, 0u) << "cache-on run never hit: nothing was tested";
  EXPECT_EQ(off.cache_hits, 0u) << "--no-rate-cache still hit the memo";
}

std::string diff_param_name(const ::testing::TestParamInfo<DiffParam>& info) {
  std::string name = to_string(std::get<0>(info.param));
  std::erase_if(name, [](char c) {
    return !std::isalnum(static_cast<unsigned char>(c));
  });
  return name + "Seed" + std::to_string(std::get<1>(info.param));
}

constexpr std::uint64_t kDiffSeeds[] = {21, 22, 23};

INSTANTIATE_TEST_SUITE_P(
    AllSchedulersAllSeeds, RateCacheDifferential,
    ::testing::Combine(::testing::ValuesIn(runner::all_schedulers().begin(),
                                           runner::all_schedulers().end()),
                       ::testing::ValuesIn(kDiffSeeds)),
    diff_param_name);

}  // namespace
}  // namespace vprobe
