// Discrete-event simulation engine.
//
// The engine owns the simulated clock and an ordered event queue.  Events
// scheduled at equal times fire in scheduling order (FIFO by sequence
// number), which keeps runs fully deterministic.  Events may be cancelled
// through the handle returned by schedule().
//
// The hot path is allocation-free in steady state (see docs/ENGINE.md):
//
//  * Event payloads (the callback plus its captures) live in a slab of
//    chunk-allocated slots recycled through a free list; slot addresses are
//    stable for the engine's lifetime, so a periodic timer's callback can
//    run in place while other events are scheduled.
//  * The priority queue is an in-house 4-ary heap of 24-byte plain entries
//    {when, seq, slot} over a contiguous vector — pops move integers, never
//    closures.  A dense position index (slot -> heap index) lets cancel()
//    remove a queued entry at once, so the heap holds live events only.
//  * Handles are {slot index, generation} values; a freed slot bumps its
//    generation so stale handles see pending() == false and cancel() as a
//    no-op.  No shared_ptr control blocks.
//  * Periodic timers are first-class: the slot is re-armed in place after
//    each firing (fresh sequence number, same callback), with no trampoline
//    lambda churn.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace vprobe::sim {

class Engine;

/// Cancellation handle for a scheduled event.  Copyable; all copies refer to
/// the same underlying event.  A default-constructed handle refers to
/// nothing.  A handle is a non-owning {engine, slot, generation} triple: it
/// must not be used after its engine is destroyed (holders in this codebase
/// are all owned by, or die before, the object that owns the engine).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event (or, for a periodic timer, the whole chain) from
  /// firing again.  Safe to call more than once, after the event has fired,
  /// or on an empty handle.
  void cancel();

  /// True while the event can still fire: scheduled and not cancelled.  For
  /// a periodic timer this stays true across firings until the chain is
  /// cancelled (including while its own callback runs).
  bool pending() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}

  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The simulation engine: a clock plus an ordered event queue.
class Engine {
 public:
  /// Invariant-checker hook: notified immediately before each event fires.
  /// An attached observer must outlive the engine or be detached first.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void on_event(Time when, std::uint64_t seq) = 0;
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Attach an event observer (nullptr detaches).  Non-owning.
  void set_observer(Observer* observer) { observer_ = observer; }
  Observer* observer() const { return observer_; }

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when` (must be >= now()).
  /// Templated so the callable is constructed directly inside its pooled
  /// slot — no temporary, no type-erased relocation on the hot path.
  template <typename F>
  EventHandle schedule_at(Time when, F&& fn) {
    if (when < now_) {
      throw std::invalid_argument("Engine::schedule_at: time is in the past");
    }
    return arm(when, Time::zero(), std::forward<F>(fn));
  }

  /// Schedule `fn` to run `delay` after now (delay must be >= 0).
  template <typename F>
  EventHandle schedule(Time delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` to run every `period`, starting at now + `period`.
  /// Returns a handle that cancels the *entire* periodic chain.
  template <typename F>
  EventHandle schedule_periodic(Time period, F&& fn) {
    return schedule_periodic_at(now_ + period, period, std::forward<F>(fn));
  }

  /// Periodic chain with an explicit first firing time (>= now()); later
  /// firings follow every `period`.  Used for phase-staggered timers like
  /// the hypervisor's per-PCPU ticks.
  template <typename F>
  EventHandle schedule_periodic_at(Time first, Time period, F&& fn) {
    if (period <= Time::zero()) {
      throw std::invalid_argument(
          "Engine::schedule_periodic: period must be positive");
    }
    if (first < now_) {
      throw std::invalid_argument(
          "Engine::schedule_periodic_at: first firing is in the past");
    }
    return arm(first, period, std::forward<F>(fn));
  }

  /// Run events until the queue empties or the clock would pass `deadline`.
  /// Events exactly at `deadline` do fire.  Returns the number of events run.
  std::size_t run_until(Time deadline);

  /// Run events strictly before `deadline`, then advance the clock to
  /// exactly `deadline`; events at `deadline` stay queued.  This is the
  /// PDES window primitive (docs/PDES.md): host shards drain everything
  /// below the next coupling point while the coupling event itself fires
  /// on the control engine first.  Returns the number of events run.
  std::size_t run_before(Time deadline);

  /// Earliest pending event's time; Time::max() when the queue is empty.
  /// The PDES synchronizer sizes each conservative window with this.
  Time next_event_time() const {
    return heap_.empty() ? Time::max() : heap_.front().when;
  }

  /// Advance the clock to `deadline` without firing anything.  The caller
  /// guarantees no pending event lies strictly before `deadline` (asserted
  /// in debug builds) — this is the PDES idle-shard handoff: the
  /// synchronizer advances a shard with no work in the window in O(1) from
  /// the control thread instead of paying a pool barrier for a no-op
  /// run_before (docs/PDES.md).  No-op when the clock is already at
  /// `deadline`.
  void advance_to(Time deadline);

  /// Run until the queue is empty (use with care: periodic timers never end;
  /// `max_events` is a runaway backstop).
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Drop every pending event (used by test teardown).  Safe to call from
  /// inside a callback; a periodic timer whose callback is executing is
  /// cancelled rather than freed out from under itself.
  void clear();

  /// Number of live events currently queued.  Cancelled events leave the
  /// queue at once; a callback that is running is not counted.
  std::size_t queued() const { return heap_.size(); }

  /// Total events executed since construction.
  std::uint64_t executed() const { return executed_; }

  /// Event slots ever allocated (slab capacity).  Stays flat in steady
  /// state — the recycling regression tests pin this.
  std::size_t slab_slots() const { return chunks_.size() * kChunkSize; }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;  // slots/chunk
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  /// One pooled event.  `gen` counts reuses of this slot; handles carry the
  /// generation they were minted with, so a recycled slot invalidates every
  /// stale handle.  `period > 0` marks a periodic chain.  A queued slot is
  /// removed and freed at once on cancel; a kFiring one has its period
  /// zeroed, so pop_one() frees it instead of re-arming it.
  struct Slot {
    enum class State : std::uint8_t { kFree, kQueued, kFiring };

    Callback fn;
    Time period = Time::zero();
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNil;
    State state = State::kFree;
  };

  /// Heap entries are small PODs ordered by (when, seq); the closure stays
  /// in its slot, so heap maintenance never copies or moves a callback.
  struct HeapEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  Slot& slot(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }
  const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);
  void grow_slab();

  /// Shared tail of every schedule_* entry point.
  template <typename F>
  EventHandle arm(Time when, Time period, F&& fn) {
    const std::uint32_t idx = alloc_slot();
    Slot& s = slot(idx);
    s.fn.emplace(std::forward<F>(fn));
    s.period = period;
    heap_push(HeapEntry{when, next_seq_++, idx});
    return EventHandle{this, idx, s.gen};
  }

  void heap_push(HeapEntry e);
  void heap_remove(std::size_t i);  ///< remove heap_[i], restoring order
  void sift_up(std::size_t i, HeapEntry e);
  void sift_down(std::size_t i, HeapEntry e);
  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    pos_[e.slot] = static_cast<std::uint32_t>(i);
  }

  bool pop_one();  // fire the earliest event; false if queue empty

  void cancel(std::uint32_t idx, std::uint32_t gen);
  bool is_pending(std::uint32_t idx, std::uint32_t gen) const;

  Observer* observer_ = nullptr;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> pos_;  ///< heap index of each queued slot
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t firing_slot_ = kNil;  ///< slot whose callback is running
};

}  // namespace vprobe::sim
