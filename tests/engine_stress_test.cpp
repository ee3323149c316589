// Event-queue edge cases and churn stress for the slab/heap engine: heavy
// cancel-while-queued loads, FIFO order at equal timestamps while the heap
// array is reshuffled underneath, cancellation from inside callbacks,
// periodic chains cancelled mid-flight, stale-handle (slot reuse) safety,
// clear() re-entrancy, slab recycling staying flat under steady churn, and
// random operation sequences checked step by step against a reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace vprobe::sim {
namespace {

TEST(EngineStress, CancelWhileQueuedNeverFiresCancelledEvent) {
  Engine e;
  constexpr int kN = 50'000;
  std::vector<EventHandle> handles;
  handles.reserve(kN);
  std::vector<char> fired(kN, 0);
  std::vector<char> cancelled(kN, 0);
  Rng rng(99);
  for (int i = 0; i < kN; ++i) {
    const Time when = Time::us(rng.uniform_int(0, 1'000'000));
    handles.push_back(e.schedule_at(when, [&fired, i] { fired[static_cast<std::size_t>(i)] = 1; }));
  }
  for (int i = 0; i < kN; ++i) {
    if (rng.chance(0.33)) {
      handles[static_cast<std::size_t>(i)].cancel();
      handles[static_cast<std::size_t>(i)].cancel();  // double-cancel is fine
      cancelled[static_cast<std::size_t>(i)] = 1;
    }
  }
  e.run();
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(fired[static_cast<std::size_t>(i)],
              cancelled[static_cast<std::size_t>(i)] ? 0 : 1)
        << "event " << i;
  }
  EXPECT_EQ(e.queued(), 0u);
}

// Thousands of equal-timestamp events must fire in scheduling order even
// though the heap array is pushed/popped (reshuffled) between the bursts
// that scheduled them, and slots are recycled in between.
TEST(EngineStress, FifoAtEqualTimestampsSurvivesHeapChurn) {
  Engine e;
  const Time target = Time::sec(10);
  std::vector<int> order;
  constexpr int kBursts = 400, kPerBurst = 25;
  order.reserve(kBursts * kPerBurst);
  for (int b = 0; b < kBursts; ++b) {
    e.schedule_at(Time::ms(b), [&e, &order, b, target] {
      for (int i = 0; i < kPerBurst; ++i) {
        const int tag = b * kPerBurst + i;
        e.schedule_at(target, [&order, tag] { order.push_back(tag); });
      }
      // Filler churn: fires (and recycles slots) before the next burst.
      for (int i = 0; i < 10; ++i) e.schedule(Time::us(i), [] {});
    });
  }
  e.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kBursts * kPerBurst));
  for (int i = 0; i < kBursts * kPerBurst; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i)
        << "equal-time events out of FIFO order";
  }
}

TEST(EngineStress, CancelFromInsideOwnCallback) {
  Engine e;
  int runs = 0;
  EventHandle h;
  h = e.schedule(Time::ms(1), [&] {
    ++runs;
    EXPECT_FALSE(h.pending());  // a one-shot is not pending while running
    h.cancel();                 // must be a harmless no-op
  });
  e.run();
  EXPECT_EQ(runs, 1);
  // The slot was recycled; the stale handle must not affect later events.
  bool second = false;
  e.schedule(Time::ms(2), [&] { second = true; });
  h.cancel();
  e.run();
  EXPECT_TRUE(second);
}

TEST(EngineStress, PeriodicCancelMidChainStopsExactly) {
  for (const int stop_after : {1, 3, 7}) {
    Engine e;
    int count = 0;
    auto h = e.schedule_periodic(Time::ms(10), [&] { ++count; });
    e.run_until(Time::ms(10) * stop_after);
    ASSERT_EQ(count, stop_after);
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    e.run_until(Time::sec(1));
    EXPECT_EQ(count, stop_after) << "chain fired after mid-chain cancel";
  }
}

TEST(EngineStress, StaleHandleCannotTouchRecycledSlot) {
  Engine e;
  bool first = false, second = false;
  auto h1 = e.schedule(Time::ms(1), [&] { first = true; });
  e.run();
  EXPECT_TRUE(first);
  // The next event reuses h1's slot (generation bumped).
  auto h2 = e.schedule(Time::ms(1), [&] { second = true; });
  EXPECT_FALSE(h1.pending());
  h1.cancel();  // stale: must not cancel h2's event
  EXPECT_TRUE(h2.pending());
  e.run();
  EXPECT_TRUE(second);
}

TEST(EngineStress, ClearFromInsideOneShotCallback) {
  Engine e;
  bool late = false;
  e.schedule(Time::ms(1), [&] {
    e.schedule(Time::ms(2), [&] { late = true; });
    e.clear();
  });
  e.run();
  EXPECT_FALSE(late);
  EXPECT_EQ(e.queued(), 0u);
  bool again = false;  // the engine stays usable after a re-entrant clear
  e.schedule(Time::ms(5), [&] { again = true; });
  e.run();
  EXPECT_TRUE(again);
}

TEST(EngineStress, ClearFromInsidePeriodicCallback) {
  Engine e;
  int count = 0;
  e.schedule_periodic(Time::ms(1), [&] {
    ++count;
    e.clear();  // must not free the slot whose callback is executing
  });
  e.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(e.queued(), 0u);
}

// Steady churn must recycle slots, not grow the slab: a bounded number of
// in-flight events keeps slab_slots() at its initial plateau no matter how
// many events pass through.
TEST(EngineStress, SlabStaysFlatUnderSteadyChurn) {
  Engine e;
  auto pump = e.schedule_periodic(Time::us(10), [&e] {
    e.schedule(Time::us(1), [] {});
  });
  e.run_until(Time::ms(500));  // ~100k events through a ~2-slot queue
  EXPECT_GT(e.executed(), 90'000u);
  EXPECT_LE(e.slab_slots(), 512u) << "slab grew under steady-state churn";
  pump.cancel();
}

// Identical schedule/cancel sequences produce identical fire sequences —
// the determinism contract the golden traces pin at system level.
TEST(EngineStress, ChurnIsDeterministic) {
  const auto run_once = [] {
    Engine e;
    Rng rng(7);
    std::vector<int> trace;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 20'000; ++i) {
      const Time when = Time::us(rng.uniform_int(0, 50'000));
      handles.push_back(
          e.schedule_at(when, [&trace, i] { trace.push_back(i); }));
      if (i % 3 == 0) {
        handles[static_cast<std::size_t>(rng.uniform_int(0, i))].cancel();
      }
    }
    e.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------- reference model ----
//
// Random schedule / periodic / cancel / run / clear sequences, with cancels,
// schedules and clears also issued from inside callbacks, replayed against a plain
// list of live events.  Each firing must be the reference's earliest
// (when, seq) entry, and after every operation queued() must equal the live
// count, every handle's pending() must match, and the slab must stay at one
// chunk: a cancelled event leaves the heap and frees its slot at once.

class EngineModel {
 public:
  explicit EngineModel(std::uint64_t seed) : rng_(seed) {}

  void run_ops(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFatalFailure(); ++op) {
      const double dice = rng_.uniform();
      if (dice < 0.35) {
        if (!schedule_one_shot(random_delay())) advance();
      } else if (dice < 0.40) {
        schedule_periodic(Time::us(rng_.uniform_int(1, 40)));
      } else if (dice < 0.55) {
        cancel(random_live_id());
      } else if (dice < 0.65) {
        cancel(random_id());  // mostly stale handles
      } else if (dice < 0.999) {
        advance();
      } else {
        clear();
      }
      check();
    }
    fired_total_ += engine_.run_until(engine_.now() + Time::ms(1));
    check();
  }

  std::uint64_t fired() const { return fired_total_; }
  std::size_t events() const { return events_.size(); }
  int clears() const { return clears_; }

 private:
  struct Live {
    Time when;
    std::uint64_t seq;
    int id;
  };
  struct Tracked {
    EventHandle handle;
    Time period;  ///< zero: one-shot
    bool live = true;
  };

  static constexpr std::size_t kMaxLive = 180;  // stays inside one chunk

  bool schedule_one_shot(Time delay) {
    if (live_.size() >= kMaxLive) return false;
    const int id = static_cast<int>(events_.size());
    events_.push_back(Tracked{engine_.schedule(delay, [this, id] { fire(id); }),
                              Time::zero()});
    live_.push_back(Live{engine_.now() + delay, seq_++, id});
    return true;
  }

  void schedule_periodic(Time period) {
    if (live_.size() >= kMaxLive || periodic_live() >= 6) return;
    const int id = static_cast<int>(events_.size());
    events_.push_back(Tracked{
        engine_.schedule_periodic(period, [this, id] { fire(id); }), period});
    live_.push_back(Live{engine_.now() + period, seq_++, id});
  }

  void cancel(int id) {
    if (id < 0) return;
    Tracked& t = events_[static_cast<std::size_t>(id)];
    t.handle.cancel();
    if (!t.live) return;  // stale or already fired: a no-op
    t.live = false;
    // Absent only for the periodic chain whose callback is running.
    std::erase_if(live_, [id](const Live& l) { return l.id == id; });
  }

  // Short delays make equal-time ties; long ones leave the last heap entry
  // earlier than interior entries, so a removal must sift it up.
  Time random_delay() {
    return Time::us(rng_.uniform_int(0, rng_.chance(0.5) ? 20 : 2000));
  }

  void advance() {
    fired_total_ +=
        engine_.run_until(engine_.now() + Time::us(rng_.uniform_int(0, 30)));
  }

  void clear() {
    ++clears_;
    engine_.clear();
    live_.clear();
    for (Tracked& t : events_) t.live = false;
  }

  int random_live_id() {
    if (live_.empty()) return -1;
    return live_[static_cast<std::size_t>(rng_.uniform_int(
                     0, static_cast<std::int64_t>(live_.size()) - 1))]
        .id;
  }

  int random_id() {
    if (events_.empty()) return -1;
    return static_cast<int>(
        rng_.uniform_int(0, static_cast<std::int64_t>(events_.size()) - 1));
  }

  std::size_t periodic_live() const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(), [](const Tracked& t) {
          return t.live && t.period > Time::zero();
        }));
  }

  void fire(int id) {
    if (::testing::Test::HasFatalFailure()) return;
    const auto earliest = std::min_element(
        live_.begin(), live_.end(), [](const Live& a, const Live& b) {
          return a.when != b.when ? a.when < b.when : a.seq < b.seq;
        });
    ASSERT_NE(earliest, live_.end()) << "event " << id << " fired, none live";
    ASSERT_EQ(earliest->id, id) << "fired out of (when, seq) order";
    ASSERT_EQ(earliest->when, engine_.now());
    live_.erase(earliest);
    Tracked& self = events_[static_cast<std::size_t>(id)];
    const Time period = self.period;
    if (period == Time::zero()) self.live = false;  // one-shot: done
    check();

    // Actions from inside the callback, each followed by a full check.
    const double dice = rng_.uniform();
    if (dice < 0.10) {
      cancel(id);  // a periodic chain cancelling itself stops it
    } else if (dice < 0.25) {
      cancel(random_live_id());
    } else if (dice < 0.45) {
      schedule_one_shot(random_delay());
    } else if (dice < 0.4505) {
      clear();  // re-entrant: the running chain must not re-arm
    }
    check();

    if (events_[static_cast<std::size_t>(id)].live) {
      // Re-armed right after the callback returns, so after anything the
      // callback scheduled.
      live_.push_back(Live{engine_.now() + period, seq_++, id});
    }
  }

  void check() const {
    ASSERT_EQ(engine_.queued(), live_.size());
    Time next = Time::max();
    for (const Live& l : live_) next = std::min(next, l.when);
    ASSERT_EQ(engine_.next_event_time(), next);
    for (std::size_t i = 0; i < events_.size(); ++i) {
      ASSERT_EQ(events_[i].handle.pending(), events_[i].live) << "event " << i;
    }
    ASSERT_LE(engine_.slab_slots(), 256u) << "cancelled slots were not freed";
  }

  Engine engine_;
  Rng rng_;
  std::vector<Live> live_;
  std::vector<Tracked> events_;
  /// The engine draws one sequence number per schedule and per periodic
  /// re-arm; the reference mirrors that count exactly.
  std::uint64_t seq_ = 0;
  std::uint64_t fired_total_ = 0;
  int clears_ = 0;
};

TEST(EngineStress, MatchesReferenceModel) {
  int clears = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    EngineModel model(seed);
    model.run_ops(3000);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_GT(model.fired(), 1000u);
    EXPECT_GT(model.events(), 1000u);
    clears += model.clears();
  }
  EXPECT_GT(clears, 0) << "no seed exercised clear()";
}

}  // namespace
}  // namespace vprobe::sim
