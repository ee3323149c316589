// Engine hot-path micro-benchmark: schedule->fire throughput, cancel cost,
// and periodic-timer chain cost of the slab/heap sim::Engine.
//
// The global operator new/delete overrides count every heap allocation, which
// is how the "zero allocations in steady state" claim is enforced: after a
// warm-up round has sized the slab and the heap vector, whole
// schedule->fire rounds must not allocate.  Every benchmark also checks its
// fired-event count against the exact total its schedule implies.
//
// Usage:
//   engine_bench            full run, JSON results on stdout
//   engine_bench --smoke    quick CI gate: asserts zero steady-state
//                           allocations, exact fired-event totals, and that
//                           cancelled events leave the queue at once; exit 1
//                           on violation
//
// The speedups over the pre-slab engine recorded in BENCH_engine.json are
// history; to compare against an older engine, A/B the commits with
// perfsuite/ab.sh REV.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "sim/engine.hpp"
#include "runner/cli.hpp"
#include "sim/time.hpp"

// ------------------------------------------------- allocation accounting ----

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al), size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using vprobe::sim::Engine;
using vprobe::sim::EventHandle;
using vprobe::sim::Time;

// ------------------------------------------------------------- harness ----

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct BenchResult {
  double events_per_sec = 0.0;
  std::uint64_t steady_allocs = 0;  // allocations in measured (post-warmup) rounds
  std::uint64_t fired = 0;
  /// Cancel churn: rounds whose queued() right after the cancels was not
  /// the live count (cancellation is eager, so this must stay 0).
  std::uint64_t queued_mismatches = 0;
};

// One round schedules `n` one-shot events, each with a 16-byte capture (the
// size of the hypervisor's `[this, pp]` hot captures), then drains them.
BenchResult bench_schedule_fire(int n, int rounds) {
  BenchResult r;
  Engine engine;
  std::uint64_t sum = 0;
  double elapsed = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const bool measured = round > 0;  // round 0 warms slab + heap capacity
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const double t0 = now_sec();
    for (int i = 0; i < n; ++i) {
      engine.schedule(Time::us(i), [&sum, i] { sum += static_cast<unsigned>(i); });
    }
    r.fired += engine.run();
    const double t1 = now_sec();
    const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    if (measured) {
      elapsed += t1 - t0;
      r.steady_allocs += a1 - a0;
    }
  }
  if (sum == 0) std::abort();  // defeat optimizer
  r.events_per_sec = static_cast<double>(n) * (rounds - 1) / elapsed;
  return r;
}

// Schedule `n` events, cancel every other one through its handle, drain.
// Exercises heap removal from the middle and slot recycling under churn.
BenchResult bench_cancel_churn(int n, int rounds) {
  BenchResult r;
  Engine engine;
  std::vector<EventHandle> handles(static_cast<std::size_t>(n));
  std::uint64_t sum = 0;
  double elapsed = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const bool measured = round > 0;
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const double t0 = now_sec();
    for (int i = 0; i < n; ++i) {
      handles[static_cast<std::size_t>(i)] =
          engine.schedule(Time::us(i), [&sum, i] { sum += static_cast<unsigned>(i); });
    }
    for (int i = 0; i < n; i += 2) handles[static_cast<std::size_t>(i)].cancel();
    if (engine.queued() != static_cast<std::size_t>(n / 2)) ++r.queued_mismatches;
    r.fired += engine.run();
    const double t1 = now_sec();
    const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    if (measured) {
      elapsed += t1 - t0;
      r.steady_allocs += a1 - a0;
    }
  }
  r.events_per_sec = static_cast<double>(n) * (rounds - 1) / elapsed;
  return r;
}

// Eight phase-staggered periodic timers (the hypervisor's tick shape: one
// per PCPU at 10ms plus accounting at 30ms is the same pattern) firing
// `fires` times in total.
BenchResult bench_periodic_chain(int timers, int fires_per_timer, int rounds) {
  BenchResult r;
  std::uint64_t count = 0;
  std::uint64_t measured_fired = 0;
  double elapsed = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const bool measured = round > 0;
    Engine engine;  // chains never end; fresh engine per round
    for (int t = 0; t < timers; ++t) {
      engine.schedule(Time::us(t), [] {});  // stagger: desynchronise seqs
    }
    engine.run();
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const double t0 = now_sec();
    for (int t = 0; t < timers; ++t) {
      engine.schedule_periodic(Time::us(100 + t), [&count] { ++count; });
    }
    const std::size_t fired =
        engine.run_until(Time::us(100) * fires_per_timer);
    r.fired += fired;
    const double t1 = now_sec();
    const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    if (measured) {
      elapsed += t1 - t0;
      measured_fired += fired;
      // Reported allocations include each round's engine bootstrap (slab
      // chunk + heap vector); the re-arms themselves allocate nothing,
      // which is what the schedule_fire/cancel gates pin down.
      r.steady_allocs += a1 - a0;
    }
  }
  r.events_per_sec = static_cast<double>(measured_fired) / elapsed;
  return r;
}

// Exact fired totals.  Cancel churn fires the uncancelled odd half.  A
// periodic chain armed at `armed` with period p fires at armed + k*p,
// k >= 1, up to and including the deadline.
std::uint64_t expected_schedule_fire(int n, int rounds) {
  return static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(rounds);
}
std::uint64_t expected_cancel_churn(int n, int rounds) {
  return static_cast<std::uint64_t>(n / 2) * static_cast<std::uint64_t>(rounds);
}
std::uint64_t expected_periodic_chain(int timers, int fires_per_timer, int rounds) {
  const std::int64_t armed_us = timers - 1;  // the last stagger event
  const std::int64_t deadline_us = 100ll * fires_per_timer;
  std::uint64_t per_round = 0;
  for (int t = 0; t < timers; ++t) {
    per_round += static_cast<std::uint64_t>((deadline_us - armed_us) / (100 + t));
  }
  return per_round * static_cast<std::uint64_t>(rounds);
}

void print_result(const char* name, const BenchResult& r, std::uint64_t expected,
                  bool first) {
  std::printf("%s    \"%s\": {\n", first ? "" : ",\n", name);
  std::printf("      \"events_per_sec\": %.0f,\n", r.events_per_sec);
  std::printf("      \"steady_allocs\": %llu,\n",
              static_cast<unsigned long long>(r.steady_allocs));
  std::printf("      \"fired\": %llu,\n", static_cast<unsigned long long>(r.fired));
  std::printf("      \"queued_mismatches\": %llu,\n",
              static_cast<unsigned long long>(r.queued_mismatches));
  std::printf("      \"expected_fired\": %llu\n",
              static_cast<unsigned long long>(expected));
  std::printf("    }");
}

}  // namespace

int main(int argc, char** argv) {
  vprobe::runner::Cli cli(argc, argv);
  cli.require_known({"smoke"});
  const bool smoke = cli.has("smoke");
  const int n = smoke ? 20'000 : 100'000;
  const int rounds = smoke ? 3 : 6;
  const int timers = 8;
  const int fires = smoke ? 2'000 : 10'000;

  const auto sf = bench_schedule_fire(n, rounds);
  const auto cc = bench_cancel_churn(n, rounds);
  const auto pc = bench_periodic_chain(timers, fires, rounds);
  const std::uint64_t sf_want = expected_schedule_fire(n, rounds);
  const std::uint64_t cc_want = expected_cancel_churn(n, rounds);
  const std::uint64_t pc_want = expected_periodic_chain(timers, fires, rounds);

  bool ok = true;
  // Correctness: every benchmark fires exactly the events it scheduled.
  ok &= sf.fired == sf_want;
  ok &= cc.fired == cc_want;
  ok &= pc.fired == pc_want;
  // The engine's claim: steady-state dispatch performs zero heap allocations.
  ok &= sf.steady_allocs == 0;
  ok &= cc.steady_allocs == 0;
  // Eager cancellation: the queue holds only the live half after the cancels.
  ok &= cc.queued_mismatches == 0;

  if (smoke) {
    std::printf("engine_bench --smoke: schedule_fire %.0f ev/s, cancel %.0f ev/s, "
                "periodic %.0f ev/s; steady allocs %llu/%llu (want 0/0); "
                "queued-after-cancel mismatches %llu (want 0); "
                "fired %llu/%llu/%llu (want %llu/%llu/%llu) %s\n",
                sf.events_per_sec, cc.events_per_sec, pc.events_per_sec,
                static_cast<unsigned long long>(sf.steady_allocs),
                static_cast<unsigned long long>(cc.steady_allocs),
                static_cast<unsigned long long>(cc.queued_mismatches),
                static_cast<unsigned long long>(sf.fired),
                static_cast<unsigned long long>(cc.fired),
                static_cast<unsigned long long>(pc.fired),
                static_cast<unsigned long long>(sf_want),
                static_cast<unsigned long long>(cc_want),
                static_cast<unsigned long long>(pc_want), ok ? "ok" : "MISMATCH");
    return ok ? 0 : 1;
  }

  std::printf("{\n");
  std::printf("  \"benchmark\": \"sim::Engine hot paths (slab/heap engine)\",\n");
  std::printf("  \"config\": {\"events_per_round\": %d, \"rounds\": %d, "
              "\"periodic_timers\": %d, \"fires_per_timer\": %d},\n",
              n, rounds, timers, fires);
  std::printf("  \"results\": {\n");
  print_result("schedule_fire_16B_capture", sf, sf_want, true);
  print_result("schedule_cancel_half_fire", cc, cc_want, false);
  print_result("periodic_chain_8_timers", pc, pc_want, false);
  std::printf("\n  },\n");
  std::printf("  \"correctness\": \"%s\"\n", ok ? "fired-counts-exact" : "MISMATCH");
  std::printf("}\n");
  return ok ? 0 : 1;
}
