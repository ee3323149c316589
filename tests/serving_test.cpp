// Serving suite: the open-loop arrival process, the log-bucketed latency
// histogram, SLO accounting, and the spike_fleet flagship scenario.
//
//   ctest -L serving
//
// The layers under test, bottom up:
//   * OpenLoopClient draws its piecewise-Poisson gaps from the documented
//     child_seed stream — proven by replaying the stream outside the client
//     and matching the issued count EXACTLY, and by the moment tests on the
//     exponential law itself.
//   * LatencyHistogram reports every percentile within its documented
//     1/128 relative-error bound of the exact order statistic, and merges
//     commutatively (bit-identical either way round).
//   * MetricsAccumulator merges distributions instead of averaging
//     percentiles (the bimodal regression the old scalar rollup failed).
//   * spike_fleet produces the same digests, histograms, and violation
//     counts under --jobs N and --sim-threads {2,4}, and its fleet digest
//     is pinned in tests/golden/cluster.txt:
//       VPROBE_UPDATE_GOLDEN=1 ctest -L serving
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/run_plan.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_file.hpp"
#include "scenario_helpers.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "stats/aggregate.hpp"
#include "stats/histogram.hpp"
#include "stats/metrics.hpp"
#include "trace/digest.hpp"
#include "workload/arrival_ledger.hpp"
#include "workload/kv_server.hpp"
#include "workload/open_loop.hpp"

namespace vprobe::wl {

/// Breaks one RequestServer bookkeeping rule at a time.
struct RequestServerFaults {
  /// A batch counted as served whose sojourns were never recorded.
  static void serve_unrecorded(RequestServer& s, int n) { s.served_ += n; }
  /// Requests counted as queued that no arrival ledger holds.
  static void queue_unledgered(RequestServer& s, int n) { s.queued_ += n; }
};

}  // namespace vprobe::wl

namespace vprobe::test {
namespace {

// -- The arrival process --------------------------------------------------------

/// A one-domain host with a KV server to absorb arrivals.
struct ServingRig {
  std::unique_ptr<hv::Hypervisor> hv;
  hv::Domain* dom = nullptr;
  std::unique_ptr<wl::RequestServer> server;
};

ServingRig make_rig(std::uint64_t seed, int workers = 4) {
  ServingRig rig;
  rig.hv = make_credit_hv(seed);
  // The memcached worker profile allocates a 512 MB region per worker, so
  // size the domain to the worker count.
  rig.dom = &rig.hv->create_domain("kv", workers * kTestGB, workers,
                                   numa::PlacementPolicy::kFillFirst);
  wl::RequestServer::Config kcfg;
  kcfg.workers = workers;
  kcfg.instr_per_request = 50e3;
  kcfg.max_batch = 16;
  kcfg.name = "kv:kv";
  const auto vcpus = domain_vcpus(*rig.dom);
  rig.server =
      std::make_unique<wl::RequestServer>(*rig.hv, *rig.dom, kcfg, vcpus);
  return rig;
}

TEST(Arrivals, ClientReplaysTheChildSeedStreamExactly) {
  ServingRig rig = make_rig(11);

  wl::OpenLoopClient::Config ocfg;
  ocfg.rps = 5000.0;
  ocfg.start_s = 0.01;
  ocfg.seed = 42;
  wl::OpenLoopClient client(rig.hv->engine(), ocfg, {rig.server.get()});
  rig.hv->start();
  client.start();
  const sim::Time horizon = sim::Time::seconds(2.0);
  rig.hv->engine().run_until(horizon);

  // Replay the documented stream outside the client: first arrival at
  // start + Exp(rate), then t += Exp(rate) per arrival, using the same
  // sim::Time arithmetic.  Anything the client did differently — an extra
  // draw, a different stream index, rate applied at the wrong time — makes
  // the counts diverge with overwhelming probability.
  sim::Rng replay(
      sim::Rng::child_seed(ocfg.seed, wl::OpenLoopClient::kStreamIndex));
  sim::Time t = sim::Time::seconds(ocfg.start_s);
  std::uint64_t predicted = 0;
  while (true) {
    t = t + sim::Time::seconds(replay.exponential(ocfg.rps));
    if (t > horizon) break;
    ++predicted;
  }
  EXPECT_EQ(client.issued(), predicted);

  // The count itself is Poisson(rate * window): mean ~9950, sd ~100.
  const double expected = ocfg.rps * (2.0 - ocfg.start_s);
  EXPECT_NEAR(static_cast<double>(predicted), expected,
              6.0 * std::sqrt(expected));
  EXPECT_GT(rig.server->served(), 0u);
  EXPECT_LE(rig.server->served(), client.issued());
}

TEST(Arrivals, InterarrivalMomentsMatchTheExponentialLaw) {
  // The gaps are Exp(rate): mean 1/rate, variance 1/rate^2.  40k draws put
  // the sample mean within ~0.5% (1 sigma) and the sample variance within
  // ~1.4%; the tolerances below are ~6 sigma.
  constexpr double kRate = 1000.0;
  constexpr int kN = 40000;
  sim::Rng rng(sim::Rng::child_seed(7, wl::OpenLoopClient::kStreamIndex));
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.exponential(kRate);
    ASSERT_GE(g, 0.0);
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / kN;
  const double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, 1.0 / kRate, 0.03 / kRate);
  EXPECT_NEAR(var, 1.0 / (kRate * kRate), 0.09 / (kRate * kRate));
}

TEST(Arrivals, RateModulationFollowsTheDocumentedFormula) {
  ServingRig rig = make_rig(3, 1);
  wl::OpenLoopClient::Config ocfg;
  ocfg.rps = 100.0;
  ocfg.spike_at_s = 1.0;
  ocfg.spike_until_s = 2.0;
  ocfg.spike_x = 3.0;
  ocfg.diurnal_period_s = 4.0;
  ocfg.diurnal_amp = 0.5;
  wl::OpenLoopClient client(rig.hv->engine(), ocfg, {rig.server.get()});

  const auto diurnal = [&](double t) {
    return 1.0 + 0.5 * std::sin(2.0 * std::numbers::pi * t / 4.0);
  };
  EXPECT_DOUBLE_EQ(client.rate_at(0.0), 100.0 * diurnal(0.0));
  EXPECT_DOUBLE_EQ(client.rate_at(0.5), 100.0 * diurnal(0.5));
  // Inside the spike window the base rate is multiplied by spike_x ...
  EXPECT_DOUBLE_EQ(client.rate_at(1.0), 300.0 * diurnal(1.0));
  EXPECT_DOUBLE_EQ(client.rate_at(1.5), 300.0 * diurnal(1.5));
  // ... and spike_until is exclusive.
  EXPECT_DOUBLE_EQ(client.rate_at(2.0), 100.0 * diurnal(2.0));
  EXPECT_DOUBLE_EQ(client.rate_at(3.0), 100.0 * diurnal(3.0));

  // diurnal_amp is clamped so the modulated rate can never reach zero.
  wl::OpenLoopClient::Config wild = ocfg;
  wild.diurnal_amp = 2.0;
  wl::OpenLoopClient clamped(rig.hv->engine(), wild, {rig.server.get()}, 1);
  EXPECT_DOUBLE_EQ(clamped.config().diurnal_amp, 0.95);
  EXPECT_GT(clamped.rate_at(3.0), 0.0);

  // rps <= 0 is inert at every t, spike or not.
  wl::OpenLoopClient::Config off = ocfg;
  off.rps = 0.0;
  wl::OpenLoopClient inert(rig.hv->engine(), off, {rig.server.get()}, 2);
  EXPECT_DOUBLE_EQ(inert.rate_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(inert.rate_at(1.5), 0.0);
}

TEST(Arrivals, InertClientNeverDrawsAndSetRateRevives) {
  ServingRig rig = make_rig(5, 2);
  wl::OpenLoopClient::Config ocfg;
  ocfg.rps = 0.0;
  ocfg.seed = 9;
  wl::OpenLoopClient client(rig.hv->engine(), ocfg, {rig.server.get()});
  rig.hv->start();
  client.start();
  rig.hv->engine().run_until(sim::Time::seconds(0.5));
  EXPECT_EQ(client.issued(), 0u);
  EXPECT_EQ(rig.server->served(), 0u);

  // Revival draws from the *front* of the stream: the parked client never
  // consumed anything while inert.
  client.set_rate(2000.0);
  rig.hv->engine().run_until(sim::Time::seconds(1.0));
  sim::Rng replay(
      sim::Rng::child_seed(ocfg.seed, wl::OpenLoopClient::kStreamIndex));
  sim::Time t = sim::Time::seconds(0.5);
  std::uint64_t predicted = 0;
  while (true) {
    t = t + sim::Time::seconds(replay.exponential(2000.0));
    if (t > sim::Time::seconds(1.0)) break;
    ++predicted;
  }
  EXPECT_EQ(client.issued(), predicted);
  EXPECT_GT(predicted, 0u);
}

// -- Lazy arrival delivery ------------------------------------------------------
//
// The lazy block path (docs/SERVING.md) must be bit-identical to the eager
// per-arrival event path under every edge the client exposes: rate changes
// mid-block (including park/revive through zero), stop() with a non-empty
// pre-drawn block, restart after stop (the spare-raw pool), and workers
// parking at exact block boundaries.  Each test runs the same script under
// both paths and compares the full observable state.

struct ScriptResult {
  std::uint64_t hist_digest = 0;
  std::uint64_t served = 0;
  std::uint64_t issued = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t events = 0;
  std::int64_t ledger_requests = 0;
  std::size_t ledger_bytes = 0;
  int workers = 0;
};

/// A rate-multiplier window for run_scripted (spike_x = 0 parks the chain
/// from inside rate_at, mid-block on the lazy path).
struct SpikeWindow {
  double at = -1.0;
  double until = -1.0;
  double x = 1.0;
};

/// One scripted run: start at t=0, apply (time, rate) pokes in order, stop
/// at stop_at (0 = never), restart at restart_at (0 = never), run to the
/// horizon.  Same seeds everywhere, so lazy and eager runs are twins.
/// Serving conservation is checked after every step of the script.
ScriptResult run_scripted(bool lazy, int block, double rps,
                          const std::vector<std::pair<double, double>>& pokes,
                          double stop_at, double restart_at, double horizon,
                          const SpikeWindow& spike = {}) {
  ServingRig rig = make_rig(21);
  wl::OpenLoopClient::Config ocfg;
  ocfg.rps = rps;
  ocfg.seed = 33;
  ocfg.lazy = lazy;
  ocfg.block = block;
  ocfg.spike_at_s = spike.at;
  ocfg.spike_until_s = spike.until;
  ocfg.spike_x = spike.x;
  wl::OpenLoopClient client(rig.hv->engine(), ocfg, {rig.server.get()});
  rig.hv->start();
  client.start();
  sim::Engine& eng = rig.hv->engine();
  for (const auto& [t, r] : pokes) {
    eng.run_until(sim::Time::seconds(t));
    client.check_conservation();
    client.set_rate(r);
    client.check_conservation();
  }
  if (stop_at > 0.0) {
    eng.run_until(sim::Time::seconds(stop_at));
    client.stop();
    client.check_conservation();
  }
  if (restart_at > 0.0) {
    eng.run_until(sim::Time::seconds(restart_at));
    client.start();
    client.check_conservation();
  }
  eng.run_until(sim::Time::seconds(horizon));
  client.check_conservation();
  ScriptResult r;
  r.hist_digest = rig.server->latency_hist().digest();
  r.served = rig.server->served();
  r.issued = client.issued();
  r.coalesced = rig.server->arrivals_coalesced();
  r.events = client.arrival_events() + rig.server->arrival_events();
  r.ledger_requests = rig.server->ledger_requests();
  r.ledger_bytes = rig.server->ledger_bytes();
  r.workers = rig.server->workers();
  return r;
}

void expect_script_identical(const ScriptResult& lazy,
                             const ScriptResult& eager) {
  EXPECT_EQ(lazy.hist_digest, eager.hist_digest)
      << "lazy delivery moved a wake or sojourn time";
  EXPECT_EQ(lazy.served, eager.served);
  EXPECT_EQ(lazy.issued, eager.issued);
  EXPECT_EQ(eager.coalesced, 0u) << "the eager path must coalesce nothing";
}

TEST(LazyArrivals, SetRateParkAndReviveMidBlockMatchEager) {
  // Rate pokes land mid-block on purpose (block 4 at 3000 rps turns over
  // every ~1.3 ms; pokes come every 50 ms), including park (rate 0) with a
  // non-empty pre-drawn block and revival from park.  The commit rule —
  // keep arrivals that happened plus the one in-flight gap, re-transform
  // the rest under the new rate — must reproduce the eager stream exactly.
  const std::vector<std::pair<double, double>> pokes = {
      {0.05, 0.0}, {0.10, 8000.0}, {0.15, 500.0}, {0.20, 0.0}, {0.25, 12000.0}};
  const ScriptResult eager =
      run_scripted(false, 4, 3000.0, pokes, 0.0, 0.0, 0.35);
  const ScriptResult small =
      run_scripted(true, 4, 3000.0, pokes, 0.0, 0.0, 0.35);
  const ScriptResult big =
      run_scripted(true, 64, 3000.0, pokes, 0.0, 0.0, 0.35);
  ASSERT_GT(eager.issued, 100u);
  expect_script_identical(small, eager);
  expect_script_identical(big, eager);
  // The block size is a pure batching knob: both lazy runs are identical.
  EXPECT_EQ(small.hist_digest, big.hist_digest);
}

TEST(LazyArrivals, ZeroRateWindowParksMidBlockAndSetRateRevives) {
  // spike_x = 0 makes rate_at() itself return zero inside [0.08, 0.14):
  // the chain parks at the first arrival landing in the window, in the
  // middle of a pre-drawn block, and the raws drawn past it go back to the
  // spare pool.  A set_rate inside the window finds the rate still zero and
  // draws nothing; the one after it revives the chain from now.
  const SpikeWindow off{0.08, 0.14, 0.0};
  const std::vector<std::pair<double, double>> pokes = {{0.11, 5000.0},
                                                        {0.2, 3000.0}};
  const ScriptResult eager =
      run_scripted(false, 4, 3000.0, pokes, 0.0, 0.0, 0.3, off);
  const ScriptResult small =
      run_scripted(true, 4, 3000.0, pokes, 0.0, 0.0, 0.3, off);
  const ScriptResult big =
      run_scripted(true, 64, 3000.0, pokes, 0.0, 0.0, 0.3, off);
  ASSERT_GT(eager.issued, 300u);
  expect_script_identical(small, eager);
  expect_script_identical(big, eager);
  // The park really held: [0.08, 0.2) is silent, so the run issues well
  // under the ~900 arrivals 0.3 s at 3000 rps would bring.
  EXPECT_LT(eager.issued, 700u);
}

TEST(LazyArrivals, StopMidBlockAndRestartContinueTheStream) {
  // stop() with ~60 undelivered projections: arrivals that happened by the
  // stop time are delivered at their true timestamps, the in-flight gap is
  // discarded (the eager client drew and dropped it too), and the undrawn
  // tail returns to the spare pool — so a restart resumes the stream at
  // exactly the eager client's position.
  const ScriptResult eager =
      run_scripted(false, 64, 4000.0, {}, 0.1, 0.2, 0.3);
  const ScriptResult lazy =
      run_scripted(true, 64, 4000.0, {}, 0.1, 0.2, 0.3);
  ASSERT_GT(eager.issued, 500u);
  expect_script_identical(lazy, eager);
}

TEST(LazyArrivals, ParkedWorkersMaterializeArrivalsAtExactTimes) {
  // At 200 rps against 4 fast workers every worker parks between arrivals,
  // so every projected arrival must be materialized as a real event at its
  // exact time (a late wake would shift every burst and the histogram).
  // Block 8 also makes many arrivals land exactly at a block boundary,
  // pinning the boundary-event/materialization-event commutation.
  const ScriptResult eager =
      run_scripted(false, 8, 200.0, {}, 0.0, 0.0, 1.0);
  const ScriptResult lazy =
      run_scripted(true, 8, 200.0, {}, 0.0, 0.0, 1.0);
  ASSERT_GT(eager.issued, 100u);
  EXPECT_EQ(eager.issued, eager.served) << "an idle fleet serves everything";
  expect_script_identical(lazy, eager);
}

TEST(LazyArrivals, SaturatedHighRateRunCoalescesMostArrivals) {
  // 400k rps against one 4-worker server (≈80k rps capacity) saturates
  // immediately: workers never park, so nearly every arrival is pure
  // bookkeeping the busy workers absorb in bulk.  The lazy path pays ~one
  // engine event per block instead of one per arrival while remaining
  // bit-identical.
  const ScriptResult eager =
      run_scripted(false, 64, 400000.0, {}, 0.0, 0.0, 0.1);
  const ScriptResult lazy =
      run_scripted(true, 64, 400000.0, {}, 0.0, 0.0, 0.1);
  ASSERT_GT(eager.issued, 20000u);
  ASSERT_LT(eager.served, eager.issued) << "the rig must actually saturate";
  expect_script_identical(lazy, eager);
  EXPECT_GT(lazy.coalesced, 0u);
  EXPECT_LE(lazy.events * 5, eager.events)
      << "lazy delivery must pay at least 5x fewer arrival events";
  // The backlog is held in the compact ledger: at most 3 B per queued
  // request (nearly every record is a 2 B delta) plus at most two partly
  // used chunks per worker (docs/SERVING.md).
  ASSERT_GT(lazy.ledger_requests, 10000);
  EXPECT_LE(lazy.ledger_bytes,
            3 * static_cast<std::size_t>(lazy.ledger_requests) +
                2 * wl::ArrivalLedger::kChunkBytes *
                    static_cast<std::size_t>(lazy.workers));
  EXPECT_EQ(lazy.ledger_bytes, eager.ledger_bytes);
}

TEST(LazyArrivals, DirectSubmitsMixWithLazyProjections) {
  // Multi-request records (submit_to with n > 1) interleave with the lazy
  // path's one-request records in the same ledgers; lazy and eager runs
  // with the same direct submits stay identical, and every request is
  // accounted for.
  const auto run = [](bool lazy) {
    ServingRig rig = make_rig(29);
    wl::OpenLoopClient::Config ocfg;
    ocfg.rps = 30000.0;
    ocfg.seed = 31;
    ocfg.lazy = lazy;
    ocfg.block = 16;
    wl::OpenLoopClient client(rig.hv->engine(), ocfg, {rig.server.get()});
    rig.hv->start();
    client.start();
    sim::Rng pokes(17);
    std::int64_t direct = 0;
    for (int step = 1; step <= 60; ++step) {
      rig.hv->engine().run_until(sim::Time::ms(5 * step));
      const int n = static_cast<int>(pokes.uniform_int(1, 40));
      rig.server->submit_to(static_cast<int>(pokes.uniform_int(0, 3)), n);
      direct += n;
    }
    const wl::RequestServer& srv = *rig.server;
    EXPECT_EQ(static_cast<std::int64_t>(client.issued()) + direct,
              static_cast<std::int64_t>(srv.served()) + srv.queued() +
                  srv.in_flight() + srv.projected_due(rig.hv->now()));
    EXPECT_EQ(srv.ledger_requests(), srv.queued() + srv.in_flight());
    EXPECT_EQ(srv.latency_hist().count(), srv.served());
    return std::tuple{srv.latency_hist().digest(), srv.served(),
                      client.issued()};
  };
  const auto eager = run(false);
  const auto lazy = run(true);
  EXPECT_GT(std::get<1>(eager), 5000u);
  EXPECT_EQ(lazy, eager);
}

// -- Conservation fault injection -----------------------------------------------
//
// check_conservation has three rules; each test breaks exactly one on a
// running rig and requires the throw that names it.

wl::OpenLoopClient::Config conservation_client() {
  wl::OpenLoopClient::Config ocfg;
  ocfg.rps = 20000.0;
  ocfg.seed = 5;
  ocfg.name = "client";
  return ocfg;
}

/// A lazy client against a rig that has served traffic and passed the check.
struct ConservationRig {
  ServingRig rig = make_rig(23);
  wl::OpenLoopClient client{rig.hv->engine(), conservation_client(),
                            {rig.server.get()}};

  ConservationRig() {
    rig.hv->start();
    client.start();
    rig.hv->engine().run_until(sim::Time::ms(50));
    EXPECT_GT(rig.server->served(), 0u);
    client.check_conservation();
  }

  /// The message check_conservation throws, or "" when it passes.
  std::string violation() const {
    try {
      client.check_conservation();
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return "";
  }
};

TEST(ConservationInjection, UnrecordedSojournsAreCaught) {
  ConservationRig c;
  wl::RequestServerFaults::serve_unrecorded(*c.rig.server, 3);
  const std::string what = c.violation();
  EXPECT_NE(what.find("serving conservation: kv:kv recorded "), std::string::npos)
      << what;
  EXPECT_NE(what.find(" sojourns for "), std::string::npos) << what;
}

TEST(ConservationInjection, UnledgeredQueuedRequestsAreCaught) {
  ConservationRig c;
  wl::RequestServerFaults::queue_unledgered(*c.rig.server, 2);
  const std::string what = c.violation();
  EXPECT_NE(what.find("serving conservation: kv:kv ledger holds "),
            std::string::npos)
      << what;
  EXPECT_NE(what.find(" queued and in flight"), std::string::npos) << what;
}

TEST(ConservationInjection, RequestsFromASecondSourceAreCaught) {
  // The rule assumes the client is the servers' only source: a direct
  // submit makes the servers hold more than the client issued.
  ConservationRig c;
  c.rig.server->submit(7);
  const std::string what = c.violation();
  EXPECT_NE(what.find("serving conservation: client issued "), std::string::npos)
      << what;
  EXPECT_NE(what.find("(served+queued+in flight+due: kv:kv="), std::string::npos)
      << what;
}

// -- The arrival ledger ---------------------------------------------------------

/// The chunk bound documented in workload/arrival_ledger.hpp, for a ledger
/// of `units` live 16-bit units.
std::size_t ledger_chunk_bound(std::size_t units) {
  constexpr std::size_t k = wl::ArrivalLedger::kChunkUnits -
                            wl::ArrivalLedger::kEscapeUnits + 1;
  return std::max<std::size_t>(2, (units + 2 * k - 2) / k);
}

/// The std::deque the ledger replaced, plus each record's size in units
/// under the documented encoding (one unit for a count-1 record 0..32767 ns
/// after the previous one, an escape otherwise).
struct ReferenceLedger {
  std::deque<std::pair<sim::Time, int>> records;
  std::deque<std::size_t> record_units;
  std::int64_t last = -1;
  std::size_t units = 0;
  std::int64_t requests = 0;

  void push(std::int64_t t, int count) {
    const bool delta =
        count == 1 && last >= 0 && t >= last && t - last <= 32767;
    last = t;
    records.emplace_back(sim::Time::ns(t), count);
    record_units.push_back(delta ? 1 : wl::ArrivalLedger::kEscapeUnits);
    units += record_units.back();
    requests += count;
  }

  /// The (when, used) pairs consume(n) must report; n is left unmatched.
  std::vector<std::pair<sim::Time, int>> consume(int& n) {
    std::vector<std::pair<sim::Time, int>> out;
    while (n > 0 && !records.empty()) {
      auto& [when, count] = records.front();
      const int used = std::min(count, n);
      out.emplace_back(when, used);
      n -= used;
      requests -= used;
      count -= used;
      if (count == 0) {
        records.pop_front();
        units -= record_units.front();
        record_units.pop_front();
      }
    }
    return out;
  }
};

/// Consume n from both and require identical reports.
void expect_consume_matches(wl::ArrivalLedger& ledger, ReferenceLedger& ref,
                            int n) {
  std::vector<std::pair<sim::Time, int>> got;
  const int left = ledger.consume(
      n, [&](sim::Time when, int used) { got.emplace_back(when, used); });
  ASSERT_EQ(got, ref.consume(n));
  ASSERT_EQ(left, n);
  ASSERT_EQ(ledger.requests(), ref.requests);
}

TEST(ArrivalLedger, MatchesADequeReferenceModel) {
  // Random pushes and random partial consumes, in fill and drain phases so
  // the ledger crosses many chunk boundaries, checked record for record
  // against the std::deque the ledger replaced.  Gaps straddle the one-unit
  // limit (32767 / 32768 ns and beyond), repeat a time, or go back in time;
  // counts run from 1 to past 32767, and some consumes are large enough to
  // drain those.  The reference tracks each record's unit size to check the
  // chunk bound.
  sim::Rng rng(5);
  wl::ArrivalLedger ledger;
  ReferenceLedger ref;
  std::int64_t t = 0;
  std::size_t peak_chunks = 0;
  for (int phase = 0; phase < 12; ++phase) {
    const double push_p = phase % 2 == 0 ? 0.75 : 0.25;
    for (int step = 0; step < 12000; ++step) {
      if (rng.chance(push_p)) {
        const double g = rng.uniform();
        if (g < 0.1) {
          // an equal time
        } else if (g < 0.15) {
          t += rng.chance(0.5) ? 32767 : 32768;
        } else if (g < 0.2) {
          t += rng.uniform_int(32769, 5'000'000'000);
        } else if (g < 0.23) {
          t = std::max<std::int64_t>(0, t - rng.uniform_int(1, 1000));
        } else {
          t += rng.uniform_int(1, 1000);
        }
        const double c = rng.uniform();
        const int count =
            c < 0.7    ? 1
            : c < 0.999 ? static_cast<int>(rng.uniform_int(2, 40))
                        : static_cast<int>(rng.uniform_int(32768, 40000));
        ledger.push(sim::Time::ns(t), count);
        ref.push(t, count);
      } else {
        const int n = rng.chance(0.005)
                          ? static_cast<int>(rng.uniform_int(1, 50000))
                          : static_cast<int>(rng.uniform_int(1, 6));
        expect_consume_matches(ledger, ref, n);
      }
      ASSERT_EQ(ledger.requests(), ref.requests);
      ASSERT_LE(ledger.chunks(), ledger_chunk_bound(ref.units)) << ref.units;
      peak_chunks = std::max(peak_chunks, ledger.chunks());
    }
  }
  expect_consume_matches(ledger, ref, std::numeric_limits<int>::max());
  EXPECT_EQ(ledger.requests(), 0);
  EXPECT_GE(peak_chunks, 8u) << "the walk must cross many chunk boundaries";

  // Escapes landing at a chunk end: with 0..7 units left in the first
  // chunk, an escape opens a second chunk unless all seven fit, and the
  // records on both sides of the boundary decode unchanged.
  constexpr auto kUnits =
      static_cast<int>(wl::ArrivalLedger::kChunkUnits);
  constexpr auto kEscape =
      static_cast<int>(wl::ArrivalLedger::kEscapeUnits);
  for (int left = 0; left <= kEscape; ++left) {
    wl::ArrivalLedger edge;
    ReferenceLedger edge_ref;
    std::int64_t at = 100;
    edge.push(sim::Time::ns(at), 3);  // the first record: an escape
    edge_ref.push(at, 3);
    for (int u = kEscape; u < kUnits - left; ++u) {
      at += 7;
      edge.push(sim::Time::ns(at), 1);
      edge_ref.push(at, 1);
    }
    ASSERT_EQ(edge_ref.units, static_cast<std::size_t>(kUnits - left));
    ASSERT_EQ(edge.chunks(), 1u);
    at += 40000;
    edge.push(sim::Time::ns(at), 1);  // a long gap: an escape
    edge_ref.push(at, 1);
    EXPECT_EQ(edge.chunks(), left < kEscape ? 2u : 1u) << left;
    at += 5;
    edge.push(sim::Time::ns(at), 1);  // a delta after the boundary
    edge_ref.push(at, 1);
    expect_consume_matches(edge, edge_ref, kUnits - left - kEscape + 2);
    expect_consume_matches(edge, edge_ref, 4);
    EXPECT_EQ(edge.requests(), 0);
  }
}

TEST(ArrivalLedger, ChunksHeldStayFlatOverASteadyDrainAndRefill) {
  // Slab behaviour: once a backlog of ~3 chunks has settled, draining and
  // refilling 2800 requests per round for 2000 rounds never holds more
  // chunks than the first rounds did.
  wl::ArrivalLedger big;
  std::int64_t t = 0;
  const auto refill = [&t](wl::ArrivalLedger& l, int n) {
    for (int i = 0; i < n; ++i) l.push(sim::Time::ns(++t), 1);
  };
  const auto noop = [](sim::Time, int) {};
  refill(big, 6000);
  std::size_t settled = 0;
  std::size_t peak = 0;
  for (int round = 0; round < 2000; ++round) {
    ASSERT_EQ(big.consume(2800, noop), 0);
    refill(big, 2800);
    if (round < 20) settled = std::max(settled, big.chunks());
    peak = std::max(peak, big.chunks());
  }
  EXPECT_EQ(peak, settled);
  EXPECT_LE(peak, ledger_chunk_bound(6000));
  EXPECT_EQ(big.requests(), 6000);

  // A small ledger oscillating across a chunk boundary keeps its one
  // spare: two chunks, never a third, however long it runs.  Its first
  // record is an escape, the rest one-unit deltas, so it starts one unit
  // short of a full chunk.
  constexpr auto kSmall = static_cast<int>(wl::ArrivalLedger::kChunkUnits -
                                           wl::ArrivalLedger::kEscapeUnits);
  wl::ArrivalLedger small;
  refill(small, kSmall);
  for (int round = 0; round < 5000; ++round) {
    refill(small, 3);
    ASSERT_EQ(small.consume(3, noop), 0);
    ASSERT_LE(small.chunks(), 2u) << round;
  }
  ASSERT_EQ(small.consume(1 << 20, noop),
            (1 << 20) - kSmall);
  EXPECT_EQ(small.requests(), 0);
  EXPECT_EQ(small.bytes(), small.chunks() * wl::ArrivalLedger::kChunkBytes);
}

// -- Bulk submit ----------------------------------------------------------------

TEST(Server, BulkSubmitMatchesThePerRequestLoop) {
  // submit(n) distributes n over the workers in O(workers); the reference
  // rig replays the per-request round-robin loop it replaced.  Batch sizes
  // are chosen to wrap the worker ring unevenly (5, 8, 37, 100 over 4
  // workers) so the share arithmetic and the ring position are both pinned.
  ServingRig fast = make_rig(13);
  ServingRig ref = make_rig(13);
  fast.hv->start();
  ref.hv->start();
  int ref_rr = 0;
  const int workers = ref.server->workers();
  const auto step = [&](double t, int n) {
    fast.hv->engine().run_until(sim::Time::seconds(t));
    ref.hv->engine().run_until(sim::Time::seconds(t));
    fast.server->submit(n);
    for (int i = 0; i < n; ++i) {
      ref.server->submit_to(ref_rr, 1);
      ref_rr = (ref_rr + 1) % workers;
    }
  };
  step(0.001, 5);
  step(0.002, 8);
  step(0.004, 37);
  step(0.010, 100);
  step(0.020, 3);
  fast.hv->engine().run_until(sim::Time::seconds(0.1));
  ref.hv->engine().run_until(sim::Time::seconds(0.1));
  EXPECT_EQ(fast.server->served(), ref.server->served());
  EXPECT_EQ(fast.server->queued(), ref.server->queued());
  EXPECT_EQ(fast.server->latency_hist().digest(),
            ref.server->latency_hist().digest())
      << "bulk submit changed a wake time or sojourn";
  EXPECT_EQ(fast.server->served(), 153u);
}

// -- Power-of-two-choices dispatch ----------------------------------------------

TEST(Arrivals, P2cDispatchIsDeterministicAndOffByDefault) {
  EXPECT_EQ(wl::OpenLoopClient::Config{}.balance,
            wl::OpenLoopClient::Config::Balance::kRoundRobin)
      << "p2c must be opt-in so existing goldens stand";

  const auto run_p2c = [] {
    ServingRig a = make_rig(17, 2);
    // A second server in its own domain on the same host.
    hv::Domain& dom2 = a.hv->create_domain("kv2", 2 * kTestGB, 2,
                                           numa::PlacementPolicy::kFillFirst);
    wl::RequestServer::Config kcfg;
    kcfg.workers = 2;
    kcfg.instr_per_request = 50e3;
    kcfg.max_batch = 16;
    kcfg.name = "kv:kv2";
    const auto vcpus = domain_vcpus(dom2);
    wl::RequestServer second(*a.hv, dom2, kcfg, vcpus);
    wl::OpenLoopClient::Config ocfg;
    ocfg.rps = 5000.0;
    ocfg.seed = 19;
    ocfg.balance = wl::OpenLoopClient::Config::Balance::kP2c;
    wl::OpenLoopClient client(a.hv->engine(), ocfg,
                              {a.server.get(), &second});
    a.hv->start();
    client.start();
    a.hv->engine().run_until(sim::Time::seconds(0.5));
    return std::tuple{client.issued(), a.server->served(), second.served(),
                      a.server->latency_hist().digest()};
  };
  const auto first = run_p2c();
  EXPECT_EQ(first, run_p2c()) << "p2c dispatch must be seed-deterministic";
  const auto& [issued, served0, served1, digest] = first;
  (void)digest;
  EXPECT_GT(issued, 1000u);
  EXPECT_GT(served0, 0u);
  EXPECT_GT(served1, 0u);
  // With both queues short, most picks tie and the tie-break (lower index)
  // favours server 0: a pin on the documented deterministic rule.
  EXPECT_GT(served0, served1);
}

TEST(Arrivals, P2cScenarioDirectiveParsesAndValidates) {
  runner::ScenarioSpec spec = runner::parse_scenario(
      "machine xeon_e5620\nvm name=kv mem=2G vcpus=4\n"
      "app vm=kv kind=kv threads=4\nopenloop rps=1000 balance=p2c\n");
  EXPECT_EQ(spec.openloop.balance, "p2c");
  EXPECT_THROW(runner::parse_scenario(
                   "machine xeon_e5620\nvm name=kv mem=2G vcpus=4\n"
                   "app vm=kv kind=kv threads=4\n"
                   "openloop rps=1000 balance=random\n"),
               std::invalid_argument);
}

// -- LatencyHistogram -----------------------------------------------------------

/// Exact ceil-rank order statistic on a sorted sample set.
double exact_percentile(const std::vector<double>& sorted, double p) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

/// Every reported percentile must land within the documented relative
/// error bound (1/128 plus sub-ns rounding) of the exact order statistic.
void expect_percentiles_within_bound(const std::vector<double>& samples,
                                     const char* what) {
  SCOPED_TRACE(what);
  stats::LatencyHistogram h;
  std::vector<double> sorted = samples;
  for (const double s : samples) h.record(s);
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(h.count(), sorted.size());
  EXPECT_DOUBLE_EQ(h.percentile(0.0), sorted.front());
  EXPECT_DOUBLE_EQ(h.percentile(100.0), sorted.back());
  for (const double p : {1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 99.99}) {
    const double exact = exact_percentile(sorted, p);
    const double approx = h.percentile(p);
    EXPECT_NEAR(approx, exact,
                exact * stats::LatencyHistogram::max_relative_error() + 2e-9)
        << "p" << p << " outside the documented error bound";
  }
}

TEST(Histogram, PercentilesWithinTheDocumentedBound) {
  sim::Rng rng(123);
  std::vector<double> uniform;
  std::vector<double> exponential;
  std::vector<double> bimodal;
  for (int i = 0; i < 40000; ++i) {
    uniform.push_back(rng.uniform(1e-6, 1e-2));
    exponential.push_back(rng.exponential(1000.0));
    bimodal.push_back(rng.chance(0.9) ? rng.uniform(0.8e-3, 1.2e-3)
                                      : rng.uniform(0.08, 0.12));
  }
  expect_percentiles_within_bound(uniform, "uniform(1us, 10ms)");
  expect_percentiles_within_bound(exponential, "exponential(mean 1ms)");
  expect_percentiles_within_bound(bimodal, "bimodal(1ms / 100ms)");
}

TEST(Histogram, SingleValueIsReportedExactly) {
  // percentile() clamps the bucket midpoint into [min, max], so a
  // single-valued distribution reports that value with zero error.
  stats::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(0.005);
  EXPECT_DOUBLE_EQ(h.p50_s(), 0.005);
  EXPECT_DOUBLE_EQ(h.p99_s(), 0.005);
  EXPECT_DOUBLE_EQ(h.p999_s(), 0.005);
  EXPECT_DOUBLE_EQ(h.min_s(), 0.005);
  EXPECT_DOUBLE_EQ(h.max_s(), 0.005);
  EXPECT_EQ(h.count_above(0.004), 100u);
  EXPECT_EQ(h.count_above(0.01), 0u);
}

TEST(Histogram, MergeIsCommutative) {
  sim::Rng rng(77);
  stats::LatencyHistogram a;
  stats::LatencyHistogram b;
  for (int i = 0; i < 10000; ++i) {
    a.record(rng.exponential(2000.0));
    b.record(rng.uniform(1e-4, 5e-2));
  }
  stats::LatencyHistogram ab = a;
  ab.merge(b);
  stats::LatencyHistogram ba = b;
  ba.merge(a);
  EXPECT_TRUE(ab == ba) << "merge(a,b) must be bitwise-equal to merge(b,a)";
  EXPECT_EQ(ab.digest(), ba.digest());
  EXPECT_EQ(ab.count(), a.count() + b.count());
  EXPECT_DOUBLE_EQ(ab.min_s(), std::min(a.min_s(), b.min_s()));
  EXPECT_DOUBLE_EQ(ab.max_s(), std::max(a.max_s(), b.max_s()));

  // Merging an empty histogram is the identity, both ways round.
  stats::LatencyHistogram empty;
  stats::LatencyHistogram a2 = a;
  a2.merge(empty);
  EXPECT_TRUE(a2 == a);
  stats::LatencyHistogram e2 = empty;
  e2.merge(a);
  EXPECT_TRUE(e2 == a);
}

TEST(Histogram, WeightedRecordEqualsRepeatedRecords) {
  // 0.5 s and its multiples are exact in binary, so even the float sum
  // matches and the histograms compare equal as a whole.
  stats::LatencyHistogram weighted;
  weighted.record(0.5, 4);
  stats::LatencyHistogram repeated;
  for (int i = 0; i < 4; ++i) repeated.record(0.5);
  EXPECT_TRUE(weighted == repeated);
  EXPECT_EQ(weighted.digest(), repeated.digest());
}

TEST(Histogram, ClampsOutOfRangeValues) {
  stats::LatencyHistogram h;
  h.record(3600.0);  // beyond the ~18 min representable ceiling
  h.record(-1.0);    // negative durations clamp to zero
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max_s(), 3600.0);  // extremes stay exact
  EXPECT_DOUBLE_EQ(h.min_s(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 3600.0);
}

// -- Seed-averaging rollup ------------------------------------------------------

TEST(Aggregate, MergesDistributionsInsteadOfAveragingPercentiles) {
  // The regression the scalar rollup had: averaging per-run p99s reports
  // (1ms + 100ms) / 2 = 50.5 ms for this bimodal pair, wildly wrong for
  // the pooled distribution whose p99 is 1 ms (1000 of 1010 samples).
  stats::RunMetrics fast;
  fast.completed = true;
  for (int i = 0; i < 1000; ++i) fast.latency.record(0.001);
  stats::RunMetrics slow;
  slow.completed = true;
  for (int i = 0; i < 10; ++i) slow.latency.record(0.1);
  slow.slo_threshold_s = 0.002;
  slow.slo_violations = 10;

  stats::MetricsAccumulator acc;
  acc.add(fast);
  acc.add(slow);
  const stats::RunMetrics mean = acc.mean();
  EXPECT_EQ(mean.latency.count(), 1010u);
  EXPECT_NEAR(mean.latency_p99_s(), 0.001, 0.001 / 64.0);
  EXPECT_LT(mean.latency_p99_s(), 0.01)
      << "p99 looks averaged, not merged (the bimodal regression)";
  EXPECT_NEAR(mean.latency_p999_s(), 0.1, 0.1 / 64.0);
  EXPECT_DOUBLE_EQ(mean.latency_max_s(), 0.1);
  // Violation counts stay totals over the pooled requests; the fraction is
  // the normalised view.
  EXPECT_EQ(mean.slo_violations, 10u);
  EXPECT_DOUBLE_EQ(mean.slo_threshold_s, 0.002);
  EXPECT_NEAR(mean.slo_violation_fraction(), 10.0 / 1010.0, 1e-12);
}

// -- Scenario-level: repeatability, stream independence, the golden -------------

constexpr const char* kSingleServing = R"(
machine xeon_e5620
scheduler credit
seed 5
horizon 0.3
sampling 0.25

vm name=kv mem=2G vcpus=4
app vm=kv kind=kv threads=4 instr=100k batch=16

openloop rps=20000 start=0.02
slo ms=1
)";

TEST(Serving, SingleMachineRunsAreExactlyRepeatable) {
  const runner::ScenarioSpec spec = runner::parse_scenario(kSingleServing);
  ASSERT_TRUE(spec.openloop_enabled);
  const stats::RunMetrics a = runner::run_scenario(spec);
  const stats::RunMetrics b = runner::run_scenario(spec);
  ASSERT_TRUE(a.completed) << "serving-only runs are horizon-bounded by design";
  EXPECT_GT(a.latency.count(), 1000u);
  EXPECT_TRUE(a.latency == b.latency);
  EXPECT_EQ(a.latency.digest(), b.latency.digest());
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.slo_threshold_s, 0.001);
  // The reported quantiles are coherent: min <= p50 <= p99 <= p999 <= max.
  EXPECT_LE(a.latency.min_s(), a.latency_p50_s());
  EXPECT_LE(a.latency_p50_s(), a.latency_p99_s());
  EXPECT_LE(a.latency_p99_s(), a.latency_p999_s());
  EXPECT_LE(a.latency_p999_s(), a.latency_max_s());
}

std::string scenario_dir() { return std::string(VPROBE_SCENARIO_DIR); }
std::string golden_path() {
  return std::string(VPROBE_GOLDEN_DIR) + "/cluster.txt";
}

runner::ScenarioSpec load_scenario(const std::string& name) {
  const std::string path = scenario_dir() + "/" + name + ".scn";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return runner::parse_scenario(buf.str());
}

struct GoldenEntry {
  std::uint64_t records = 0;
  std::string digest;
};

std::map<std::string, GoldenEntry> load_goldens() {
  std::map<std::string, GoldenEntry> goldens;
  std::ifstream in(golden_path());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    GoldenEntry entry;
    if (fields >> key >> entry.records >> entry.digest) goldens[key] = entry;
  }
  return goldens;
}

void save_goldens(const std::map<std::string, GoldenEntry>& goldens) {
  std::ofstream out(golden_path());
  // Keep this header byte-identical to the ones in tests/cluster_test.cpp
  // and tests/pdes_test.cpp — whichever test regenerates last must not
  // churn the others' docs.
  out << "# Cluster golden digests: <key> <records> <fnv1a-64 hex>\n"
      << "# fleet_mix: examples/scenarios/fleet_mix.scn — 4 heterogeneous\n"
      << "# hosts, scripted live migration, balancer, churn; records is the\n"
      << "# fleet-wide trace count, digest the host-id-ordered fleet fold.\n"
      << "# fleet_mix_pdes: the same scenario at --sim-threads 4; the PDES\n"
      << "# contract requires it to EQUAL fleet_mix byte for byte.\n"
      << "# clustered_control: examples/scenarios/clustered_control.scn —\n"
      << "# control events denser than host events (2 ms churn vs 10 ms tick\n"
      << "# grids, coincident migrations); pins the batched-window regime.\n"
      << "# spike_fleet: examples/scenarios/spike_fleet.scn — open-loop\n"
      << "# Poisson serving fleet (kv servers, 4x arrival spike, SLO\n"
      << "# accounting, churn); pins the serving stack's event stream.\n"
      << "# Regenerate: VPROBE_UPDATE_GOLDEN=1 ctest -L cluster -L pdes"
         " -L serving\n";
  for (const auto& [key, entry] : goldens) {
    out << key << ' ' << entry.records << ' ' << entry.digest << '\n';
  }
}

bool update_mode() { return std::getenv("VPROBE_UPDATE_GOLDEN") != nullptr; }

TEST(Serving, InertClientNeverPerturbsTheFleetStream) {
  // The stream-independence contract: enabling the open-loop directive with
  // rps = 0 constructs the client but never lets it draw, schedule, or
  // submit — so the fleet's event stream must be IDENTICAL to a run with
  // the directive disabled entirely.
  const runner::ScenarioSpec spec = load_scenario("spike_fleet");
  ASSERT_TRUE(spec.openloop_enabled);
  runner::ScenarioSpec off = spec;
  off.openloop_enabled = false;
  runner::ScenarioSpec inert = spec;
  inert.openloop.rps = 0.0;
  const stats::RunMetrics a = runner::run_scenario(off);
  const stats::RunMetrics b = runner::run_scenario(inert);
  EXPECT_EQ(a.cluster.fleet_digest, b.cluster.fleet_digest)
      << "an inert client perturbed the fleet stream";
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    EXPECT_EQ(a.hosts[i].trace_digest, b.hosts[i].trace_digest);
    EXPECT_EQ(a.hosts[i].trace_records, b.hosts[i].trace_records);
  }
  EXPECT_EQ(b.latency.count(), 0u);
  EXPECT_EQ(b.slo_violations, 0u);
}

void expect_serving_identical(const stats::RunMetrics& a,
                              const stats::RunMetrics& b) {
  EXPECT_EQ(a.cluster.fleet_digest, b.cluster.fleet_digest);
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    EXPECT_EQ(a.hosts[i].trace_digest, b.hosts[i].trace_digest)
        << "host " << i << " stream diverged";
    EXPECT_EQ(a.hosts[i].trace_records, b.hosts[i].trace_records);
    EXPECT_TRUE(a.hosts[i].latency == b.hosts[i].latency)
        << "host " << i << " latency histogram diverged";
    EXPECT_EQ(a.hosts[i].slo_violations, b.hosts[i].slo_violations);
  }
  EXPECT_TRUE(a.latency == b.latency);
  EXPECT_EQ(a.latency.digest(), b.latency.digest());
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
}

TEST(SpikeFleet, JobsAndShardCountsNeverChangeTheServingStats) {
  const runner::ScenarioSpec spec = load_scenario("spike_fleet");
  ASSERT_TRUE(spec.cluster_mode());
  const stats::RunMetrics serial = runner::run_scenario(spec);
  ASSERT_GT(serial.latency.count(), 0u);
  ASSERT_GT(serial.slo_violations, 0u)
      << "the spike must push the fleet past its SLO";

  // --jobs 2: two concurrent executor workers running the same spec must
  // both reproduce the serial stream and stats bit for bit.
  const auto job = [&spec](const runner::RunConfig& c) {
    runner::ScenarioSpec seeded = spec;
    seeded.seed = c.seed;
    return runner::run_scenario(seeded);
  };
  runner::RunConfig cfg;
  cfg.seed = spec.seed;
  runner::RunPlan plan;
  plan.add(runner::RunSpec{cfg, "spike-a", job});
  plan.add(runner::RunSpec{cfg, "spike-b", job});
  runner::ExecutorOptions opts;
  opts.jobs = 2;
  const auto results = runner::execute_plan(plan, opts);
  for (const auto& r : results) {
    SCOPED_TRACE("--jobs 2");
    expect_serving_identical(serial, r);
  }

  // --sim-threads {2,4}: the PDES path must reproduce the digests, the
  // full latency histogram, and the violation counts.
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("sim_threads " + std::to_string(threads));
    runner::ScenarioSpec sharded = spec;
    sharded.sim_threads = threads;
    expect_serving_identical(serial, runner::run_scenario(sharded));
  }

  // --no-lazy-arrivals: the per-arrival event path must reproduce the lazy
  // default bit for bit, serial and sharded, while the counters show the
  // lazy run actually skipped arrival events (the escape hatch proves the
  // optimisation is observable only through the counters).
  runner::ScenarioSpec eager = spec;
  eager.lazy_arrivals = false;
  const stats::RunMetrics eager_m = runner::run_scenario(eager);
  {
    SCOPED_TRACE("--no-lazy-arrivals");
    expect_serving_identical(serial, eager_m);
  }
  EXPECT_EQ(eager_m.arrivals_coalesced, 0u);
  EXPECT_GT(serial.arrivals_coalesced, 0u)
      << "the spike run must coalesce arrivals on the lazy path";
  EXPECT_LT(serial.arrival_events, eager_m.arrival_events);
  {
    SCOPED_TRACE("--no-lazy-arrivals --sim-threads 4");
    runner::ScenarioSpec eager_sharded = eager;
    eager_sharded.sim_threads = 4;
    expect_serving_identical(serial, runner::run_scenario(eager_sharded));
  }
}

TEST(SpikeFleet, GoldenFleetDigest) {
  const runner::ScenarioSpec spec = load_scenario("spike_fleet");
  ASSERT_TRUE(spec.cluster_mode());
  ASSERT_TRUE(spec.openloop_enabled);
  const stats::RunMetrics m = runner::run_scenario(spec);
  ASSERT_TRUE(m.completed);
  ASSERT_GT(m.latency.count(), 10000u) << "the spike run must serve traffic";
  ASSERT_GT(m.slo_violations, 0u);

  GoldenEntry actual;
  for (const auto& h : m.hosts) actual.records += h.trace_records;
  actual.digest = trace::digest_hex(m.cluster.fleet_digest);
  ASSERT_GT(actual.records, 0u);

  auto goldens = load_goldens();
  if (update_mode()) {
    goldens["spike_fleet"] = actual;
    save_goldens(goldens);
    GTEST_SKIP() << "golden updated: spike_fleet = " << actual.digest;
  }
  ASSERT_TRUE(goldens.count("spike_fleet"))
      << "no golden for 'spike_fleet' in " << golden_path()
      << " — run VPROBE_UPDATE_GOLDEN=1 ctest -L serving";
  EXPECT_EQ(goldens["spike_fleet"].records, actual.records);
  EXPECT_EQ(goldens["spike_fleet"].digest, actual.digest)
      << "serving event stream changed. If intentional, regenerate with "
      << "VPROBE_UPDATE_GOLDEN=1 ctest -L serving";
}

}  // namespace
}  // namespace vprobe::test
