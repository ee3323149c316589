#include "sim/engine.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace vprobe::sim {

void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->cancel(slot_, gen_);
}

bool EventHandle::pending() const {
  return engine_ != nullptr && engine_->is_pending(slot_, gen_);
}

void Engine::cancel(std::uint32_t idx, std::uint32_t gen) {
  Slot& s = slot(idx);
  if (s.gen != gen || s.state == Slot::State::kFree) return;  // stale handle
  if (s.state == Slot::State::kQueued) {
    assert(heap_[pos_[idx]].slot == idx && "stale heap position index");
    heap_remove(pos_[idx]);
    free_slot(idx);
    return;
  }
  // Firing: its callback is on the stack.  A zero period makes pop_one()
  // free the slot instead of re-arming it when the callback returns.
  s.period = Time::zero();
}

bool Engine::is_pending(std::uint32_t idx, std::uint32_t gen) const {
  const Slot& s = slot(idx);
  if (s.gen != gen) return false;
  // A one-shot is no longer pending while (or after) its callback runs; a
  // periodic chain stays pending across firings until cancelled (which
  // zeroes its period).
  return s.state == Slot::State::kQueued ||
         (s.state == Slot::State::kFiring && s.period > Time::zero());
}

// ------------------------------------------------------------------ slab ----

void Engine::grow_slab() {
  const auto base = static_cast<std::uint32_t>(chunks_.size()) * kChunkSize;
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  pos_.resize(slab_slots());
  Slot* chunk = chunks_.back().get();
  // Link low indices at the head so allocation order is deterministic.
  for (std::uint32_t i = kChunkSize; i-- > 0;) {
    chunk[i].next_free = free_head_;
    free_head_ = base + i;
  }
}

std::uint32_t Engine::alloc_slot() {
  if (free_head_ == kNil) grow_slab();
  const std::uint32_t idx = free_head_;
  Slot& s = slot(idx);
  free_head_ = s.next_free;
  s.state = Slot::State::kQueued;
  return idx;
}

void Engine::free_slot(std::uint32_t idx) {
  Slot& s = slot(idx);
  s.fn.reset();  // release captured resources now, not at next reuse
  s.period = Time::zero();
  ++s.gen;  // invalidate every outstanding handle to this slot
  s.state = Slot::State::kFree;
  s.next_free = free_head_;
  free_head_ = idx;
}

// ------------------------------------------------------------------ heap ----

// 4-ary implicit heap: half the depth of a binary heap, and the four
// children of a node sit in at most two cache lines, so the pop-side
// sift-down — the dominant cost of a large event queue — takes roughly half
// the cache misses.  Both sifts move the displaced entry through a hole
// instead of swapping, halving data movement per level.  Every entry that
// lands in a hole goes through place(), which keeps pos_ current.

void Engine::sift_up(std::size_t i, HeapEntry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void Engine::sift_down(std::size_t i, HeapEntry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

void Engine::heap_push(HeapEntry e) {
  heap_.push_back(e);  // reserve the spot; overwritten if e sifts up
  sift_up(heap_.size() - 1, e);
}

void Engine::heap_remove(std::size_t i) {
  assert(i < heap_.size());
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // removed the last entry itself
  // `last` refills the hole at i: it may belong above i (a removal from the
  // middle of the heap) or below it, never both.
  if (i > 0 && earlier(last, heap_[(i - 1) / 4])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

// --------------------------------------------------------------- running ----

bool Engine::pop_one() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  Slot& s = slot(top.slot);
  assert(top.when >= now_);
  assert(pos_[top.slot] == 0 && s.state == Slot::State::kQueued);
  if (observer_ != nullptr) observer_->on_event(top.when, top.seq);
  heap_remove(0);
  now_ = top.when;
  ++executed_;
  // Run the callback in place: slot addresses are stable, and the kFiring
  // state keeps the slot out of the free list while its callback executes
  // (anything the callback schedules — or a re-entrant clear() — therefore
  // cannot recycle it underneath us).
  s.state = Slot::State::kFiring;
  firing_slot_ = top.slot;
  s.fn();
  firing_slot_ = kNil;
  if (s.period > Time::zero()) {
    // Periodic: re-arm the same slot with a fresh sequence number — drawn
    // right after the callback returned, exactly where the old trampoline
    // assigned it (keeps equal-time FIFO order, and so golden traces, intact).
    s.state = Slot::State::kQueued;
    heap_push(HeapEntry{now_ + s.period, next_seq_++, top.slot});
  } else {
    free_slot(top.slot);
  }
  return true;
}

std::size_t Engine::run_until(Time deadline) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    pop_one();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::size_t Engine::run_before(Time deadline) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().when < deadline) {
    pop_one();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

void Engine::advance_to(Time deadline) {
  assert(next_event_time() >= deadline);
  if (now_ < deadline) now_ = deadline;
}

std::size_t Engine::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && pop_one()) ++n;
  return n;
}

void Engine::clear() {
  heap_.clear();  // entries are PODs: no pops, no per-event heap repair
  // Rebuild the free list from scratch (low indices at the head, matching
  // grow_slab's deterministic order).  A periodic slot whose callback is
  // currently executing must not be freed out from under itself: zero its
  // period and let pop_one() free it when the callback returns.
  free_head_ = kNil;
  for (auto idx = static_cast<std::uint32_t>(slab_slots()); idx-- > 0;) {
    Slot& s = slot(idx);
    if (idx == firing_slot_) {
      s.period = Time::zero();
      continue;
    }
    if (s.state != Slot::State::kFree) {
      s.fn.reset();
      s.period = Time::zero();
      ++s.gen;
      s.state = Slot::State::kFree;
    }
    s.next_free = free_head_;
    free_head_ = idx;
  }
}

}  // namespace vprobe::sim
