// Engine hot-path micro-benchmark: schedule->fire throughput, cancel cost,
// and periodic-timer chain cost, for the slab/heap engine versus the pre-PR
// baseline (std::function + shared_ptr state + priority_queue + trampoline
// periodic timers), which is embedded below so the comparison is always
// available from one binary.
//
// The global operator new/delete overrides count every heap allocation, which
// is how the "zero allocations in steady state" claim is enforced: after a
// warm-up round has sized the slab and the heap vector, whole
// schedule->fire rounds on the new engine must not allocate.
//
// Usage:
//   engine_bench            full run, JSON results on stdout (BENCH_engine.json)
//   engine_bench --smoke    quick CI gate: asserts zero steady-state
//                           allocations and event-count correctness; exit 1
//                           on violation
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <vector>

#include "sim/engine.hpp"
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

using vprobe::sim::Time;

// ------------------------------------------------------ pre-PR baseline ----
// Verbatim shape of the engine before this PR (log/observer plumbing
// dropped): two allocations per scheduled event, a full Item copy out of
// priority_queue::top() on every pop, and a shared_ptr trampoline that
// re-allocates on each periodic re-arm.

namespace legacy {

class Engine;

class EventHandle {
 public:
  EventHandle() = default;
  void cancel() {
    if (state_) state_->cancelled = true;
  }
  bool pending() const { return state_ && !state_->cancelled && !state_->fired; }

 private:
  friend class Engine;
  struct State {
    bool cancelled = false;
    bool fired = false;
  };
  explicit EventHandle(std::shared_ptr<State> s) : state_(std::move(s)) {}
  std::shared_ptr<State> state_;
};

class Engine {
 public:
  Time now() const { return now_; }

  EventHandle schedule_at(Time when, std::function<void()> fn) {
    auto state = std::make_shared<EventHandle::State>();
    queue_.push(Item{when, next_seq_++, std::move(fn), state});
    return EventHandle{std::move(state)};
  }
  EventHandle schedule(Time delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  EventHandle schedule_periodic(Time period, std::function<void()> fn) {
    auto state = std::make_shared<EventHandle::State>();
    auto arm = std::make_shared<std::function<void(Time)>>();
    // The closure refers to itself weakly; the queued item owns it, so the
    // chain is freed once its last occurrence leaves the queue.
    *arm = [this, period, fn = std::move(fn), state,
            self = std::weak_ptr(arm)](Time when) {
      queue_.push(Item{when, next_seq_++,
                       [this, period, fn, state, arm = self.lock()] {
                         fn();
                         if (!state->cancelled) (*arm)(now_ + period);
                       },
                       state});
    };
    (*arm)(now_ + period);
    return EventHandle{std::move(state)};
  }

  std::size_t run_until(Time deadline) {
    std::size_t n = 0;
    while (!queue_.empty()) {
      if (queue_.top().state->cancelled) {
        queue_.pop();
        continue;
      }
      if (queue_.top().when > deadline) break;
      if (pop_one()) ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }
  std::size_t run() {
    std::size_t n = 0;
    while (pop_one()) ++n;
    return n;
  }

 private:
  struct Item {
    Time when;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<EventHandle::State> state;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool pop_one() {
    while (!queue_.empty()) {
      Item item = queue_.top();  // const top(): must copy before pop
      queue_.pop();
      if (item.state->cancelled) continue;
      now_ = item.when;
      item.state->fired = true;
      item.fn();
      return true;
    }
    return false;
  }

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Item, std::vector<Item>, Later> queue_;
};

}  // namespace legacy

// ------------------------------------------------------------- harness ----

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct BenchResult {
  double events_per_sec = 0.0;
  std::uint64_t steady_allocs = 0;  // allocations in measured (post-warmup) rounds
  std::uint64_t fired = 0;
};

// One round schedules `n` one-shot events, each with a 16-byte capture (the
// size of the hypervisor's `[this, pp]` hot captures), then drains them.
template <typename EngineT>
BenchResult bench_schedule_fire(int n, int rounds) {
  BenchResult r;
  EngineT engine;
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
// Exercises the lazy-deletion pop path and slot recycling under churn.
template <typename EngineT, typename HandleT>
BenchResult bench_cancel_churn(int n, int rounds) {
  BenchResult r;
  EngineT engine;
  std::vector<HandleT> handles(static_cast<std::size_t>(n));
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
template <typename EngineT>
BenchResult bench_periodic_chain(int timers, int fires_per_timer, int rounds) {
  BenchResult r;
  std::uint64_t count = 0;
  std::uint64_t measured_fired = 0;
  double elapsed = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const bool measured = round > 0;
    EngineT engine;  // chains never end; fresh engine per round
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
      // chunk + heap vector); the new engine's re-arms themselves allocate
      // nothing, which is what the schedule_fire/cancel gates pin down.
      r.steady_allocs += a1 - a0;
    }
  }
  r.events_per_sec = static_cast<double>(measured_fired) / elapsed;
  return r;
}

void print_result(const char* name, const BenchResult& legacy_r,
                  const BenchResult& new_r, bool first) {
  std::printf("%s    \"%s\": {\n", first ? "" : ",\n", name);
  std::printf("      \"legacy_events_per_sec\": %.0f,\n", legacy_r.events_per_sec);
  std::printf("      \"new_events_per_sec\": %.0f,\n", new_r.events_per_sec);
  std::printf("      \"speedup\": %.2f,\n",
              new_r.events_per_sec / legacy_r.events_per_sec);
  std::printf("      \"legacy_steady_allocs\": %llu,\n",
              static_cast<unsigned long long>(legacy_r.steady_allocs));
  std::printf("      \"new_steady_allocs\": %llu\n",
              static_cast<unsigned long long>(new_r.steady_allocs));
  std::printf("    }");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int n = smoke ? 20'000 : 100'000;
  const int rounds = smoke ? 3 : 6;
  const int timers = 8;
  const int fires = smoke ? 2'000 : 10'000;

  using NewEngine = vprobe::sim::Engine;
  using NewHandle = vprobe::sim::EventHandle;

  const auto legacy_sf = bench_schedule_fire<legacy::Engine>(n, rounds);
  const auto new_sf = bench_schedule_fire<NewEngine>(n, rounds);
  const auto legacy_cc =
      bench_cancel_churn<legacy::Engine, legacy::EventHandle>(n, rounds);
  const auto new_cc = bench_cancel_churn<NewEngine, NewHandle>(n, rounds);
  const auto legacy_pc =
      bench_periodic_chain<legacy::Engine>(timers, fires, rounds);
  const auto new_pc = bench_periodic_chain<NewEngine>(timers, fires, rounds);

  bool ok = true;
  // Correctness: both engines fire the same event counts.
  ok &= legacy_sf.fired == new_sf.fired;
  ok &= legacy_cc.fired == new_cc.fired;
  ok &= legacy_pc.fired == new_pc.fired;
  // The tentpole claim: steady-state dispatch performs zero heap allocations.
  ok &= new_sf.steady_allocs == 0;
  ok &= new_cc.steady_allocs == 0;

  if (smoke) {
    std::printf("engine_bench --smoke: schedule_fire %.2fx, cancel %.2fx, "
                "periodic %.2fx; new-engine steady allocs %llu/%llu (want 0/0); "
                "counts %s\n",
                new_sf.events_per_sec / legacy_sf.events_per_sec,
                new_cc.events_per_sec / legacy_cc.events_per_sec,
                new_pc.events_per_sec / legacy_pc.events_per_sec,
                static_cast<unsigned long long>(new_sf.steady_allocs),
                static_cast<unsigned long long>(new_cc.steady_allocs),
                ok ? "match" : "MISMATCH");
    return ok ? 0 : 1;
  }

  std::printf("{\n");
  std::printf("  \"benchmark\": \"sim::Engine hot paths, slab/heap engine vs pre-PR baseline (embedded)\",\n");
  std::printf("  \"config\": {\"events_per_round\": %d, \"rounds\": %d, "
              "\"periodic_timers\": %d, \"fires_per_timer\": %d},\n",
              n, rounds, timers, fires);
  std::printf("  \"results\": {\n");
  print_result("schedule_fire_16B_capture", legacy_sf, new_sf, true);
  print_result("schedule_cancel_half_fire", legacy_cc, new_cc, false);
  print_result("periodic_chain_8_timers", legacy_pc, new_pc, false);
  std::printf("\n  },\n");
  std::printf("  \"correctness\": \"%s\"\n", ok ? "fired-counts-match" : "MISMATCH");
  std::printf("}\n");
  return ok ? 0 : 1;
}
