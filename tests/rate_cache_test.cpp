// Rate-cache suite: the bit-identical reuse paths behind the
// --no-rate-cache escape hatch (the tracker decay memo, the unchanged-burst
// reuse and the slice-clamp floor), and the cache-on/off differential.
//
// Reuse may only happen when it is provably bit-identical to a full
// recomputation, so the tests here are exact-equality tests (EXPECT_EQ on
// doubles, digest comparison on full trace streams), never EXPECT_NEAR.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "check/invariants.hpp"
#include "numa/machine_config.hpp"
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

// ------------------------------------------------ slice-clamp floor ----

TEST(SliceClamp, MinNsPerInstrIsAHardFloor) {
  // The slice-clamp fast path in the hypervisor is sound only if no
  // profile/contention combination can undercut base_cpi/clock.
  const numa::MachineConfig cfg = numa::MachineConfig::xeon_e5620();
  perf::MachineState state(cfg);
  perf::CostModel model(cfg, state);
  std::array<double, 2> fractions{0.75, 0.25};
  perf::SliceProfile profile;
  profile.rpti = 20.0;
  profile.solo_miss = 0.2;
  profile.miss_sensitivity = 0.4;
  profile.working_set_bytes = 8.0e6;
  profile.node_fractions = fractions;

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
  std::uint64_t rate_evals = 0;
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
  r.rate_evals = sc.hv->cost_model().cache_stats().misses;
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
  // The slice clamp skips predictions, so the cache-on run must evaluate
  // fewer rates; equal counts would mean no reuse path ran.
  EXPECT_LT(on.rate_evals, off.rate_evals)
      << "cache-on run skipped no rate evaluation: nothing was tested";
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
