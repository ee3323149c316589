// Rate-cache suite: the bit-identical reuse paths behind the
// --no-rate-cache escape hatch (the slice clamp and decay memos), and the
// cache-on/off differential.
//
// Reuse may only happen when it is provably bit-identical to a full
// recomputation, so the tests here are exact-equality tests (EXPECT_EQ on
// doubles, digest comparison on full trace streams), never EXPECT_NEAR.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <string>
#include <tuple>

#include "check/invariants.hpp"
#include "numa/machine_config.hpp"
#include "numa/rate_tracker.hpp"
#include "perf/contention.hpp"
#include "perf/cost_model.hpp"
#include "runner/churn.hpp"
#include "runner/scenario.hpp"
#include "scenario_helpers.hpp"
#include "trace/digest.hpp"
#include "trace/tracer.hpp"

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
