// Compact arrival bookkeeping for the request server (docs/SERVING.md,
// "Lazy arrival delivery").
//
// ArrivalLedger is the per-worker FIFO of (arrival time, request count)
// records that latency accounting drains in order.  Records are streams of
// 16-bit units in a singly linked list of 4 KB chunks:
//
//   delta    one unit (top bit clear): a count-1 record arriving 0..32767 ns
//            after the previous record;
//   escape   a marker unit (top bit set), then the full int count (2 units)
//            and the absolute arrival time in nanoseconds (4 units): every
//            other record — count > 1, a longer gap, a time earlier than the
//            previous record's, and the first record.
//
// The push side and the consume side each keep the previous record's time,
// so a delta decodes against the record drained just before it.  At the
// 1M-rps serving rate a worker sees an arrival every ~16 us, so nearly every
// backlogged request costs 2 B.  Consuming part of an escape rewrites only
// its count, so the drain sees exactly the (when, count) sequence a
// std::deque<std::pair<Time, int>> would hold.
//
// A record never straddles a chunk: an escape that does not fit in the tail
// chunk opens the next one, and each chunk stores how many units it used.
// Chunks are allocated on the first push past a full tail, never up front.
// A drained head chunk is kept as the one spare when the ledger is down to a
// single chunk (a small FIFO oscillating across a chunk boundary then never
// touches the allocator) and freed otherwise.  Every chunk but the tail
// leaves at most kEscapeUnits - 1 units unused, so with K = kChunkUnits -
// kEscapeUnits + 1 a ledger of U live units holds at most
// max(2, floor((U + 2K - 2) / K)) chunks: the live units plus the consumed
// prefix of the head chunk and the free suffix of the tail chunk.
//
// ProjectionRing holds a server's projected (not yet delivered) arrivals: a
// power-of-two ring with O(1) push and pop at both ends, allocated on the
// first push and doubled when full.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace vprobe::wl {

class ArrivalLedger {
 public:
  static constexpr std::size_t kChunkBytes = 4096;
  /// Record units per chunk: the chunk minus its link and its used count.
  static constexpr std::size_t kChunkUnits =
      (kChunkBytes - sizeof(void*) - sizeof(std::uint16_t)) /
      sizeof(std::uint16_t);
  /// Units in an escape record: marker, int count, 64-bit time.
  static constexpr std::size_t kEscapeUnits = 1 + 2 + 4;
  /// Largest gap a one-unit record can hold.
  static constexpr std::int64_t kMaxDelta = 0x7fff;

  ArrivalLedger() = default;
  ~ArrivalLedger() {
    free_chain(head_);
    delete spare_;
  }
  ArrivalLedger(const ArrivalLedger&) = delete;
  ArrivalLedger& operator=(const ArrivalLedger&) = delete;

  /// Requests recorded and not yet consumed.
  std::int64_t requests() const { return requests_; }
  /// Chunks held, the spare included.
  std::size_t chunks() const { return chunks_; }
  std::size_t bytes() const { return chunks_ * kChunkBytes; }

  /// Append `count` (>= 1) requests that arrived at `when` (>= 0).
  void push(sim::Time when, int count) {
    assert(count >= 1 && !when.is_negative());
    const std::int64_t t = when.nanos();
    const std::int64_t delta = t - pushed_;
    pushed_ = t;
    requests_ += count;
    if (count == 1 && delta >= 0 && delta <= kMaxDelta) {
      reserve(1)[0] = static_cast<std::uint16_t>(delta);
      return;
    }
    std::uint16_t* u = reserve(kEscapeUnits);
    u[0] = kMarker;
    std::memcpy(u + 1, &count, sizeof count);
    std::memcpy(u + 3, &t, sizeof t);
  }

  /// Consume up to `n` requests oldest first, calling f(when, used) once per
  /// record touched; a partly consumed record keeps its remainder at the
  /// front.  Returns the requests left unmatched (0 unless the ledger ran
  /// dry).
  template <class F>
  int consume(int n, F&& f) {
    while (n > 0 && requests_ != 0) {
      std::uint16_t* u = head_->unit + head_pos_;
      if ((u[0] & kMarker) == 0) {
        consumed_ += u[0];
        f(sim::Time::ns(consumed_), 1);
        --n;
        --requests_;
        pop(1);
        continue;
      }
      int count = 0;
      std::memcpy(&count, u + 1, sizeof count);
      std::memcpy(&consumed_, u + 3, sizeof consumed_);
      const int used = std::min(count, n);
      f(sim::Time::ns(consumed_), used);
      n -= used;
      requests_ -= used;
      if (used < count) {
        count -= used;
        std::memcpy(u + 1, &count, sizeof count);
      } else {
        pop(kEscapeUnits);
      }
    }
    return n;
  }

 private:
  static constexpr std::uint16_t kMarker = 0x8000;

  struct Chunk {
    Chunk* next;
    /// Units holding records; kChunkUnits until the chunk is sealed by the
    /// next grow().
    std::uint16_t used;
    std::uint16_t unit[kChunkUnits];
  };
  static_assert(sizeof(Chunk) == kChunkBytes);
  static_assert(kMaxDelta < kMarker);

  static void free_chain(Chunk* c) {
    while (c != nullptr) delete std::exchange(c, c->next);
  }

  /// Room for one record of `units` units at the tail.
  std::uint16_t* reserve(std::size_t units) {
    if (tail_pos_ + units > kChunkUnits) grow();
    std::uint16_t* u = tail_->unit + tail_pos_;
    tail_pos_ += units;
    return u;
  }

  void grow() {
    Chunk* c = spare_ != nullptr ? std::exchange(spare_, nullptr) : new_chunk();
    c->next = nullptr;
    c->used = kChunkUnits;
    if (tail_ != nullptr) {
      tail_->used = static_cast<std::uint16_t>(tail_pos_);
      tail_->next = c;
    } else {
      head_ = c;
    }
    tail_ = c;
    tail_pos_ = 0;
  }

  Chunk* new_chunk() {
    ++chunks_;
    return new Chunk;
  }

  /// Drop the fully consumed head record of `units` units.
  void pop(std::size_t units) {
    if (requests_ == 0) {
      // Drained: head and tail share one chunk; restart it from the top.
      head_pos_ = 0;
      tail_pos_ = 0;
      return;
    }
    head_pos_ += units;
    if (head_pos_ < head_->used) return;
    Chunk* done = std::exchange(head_, head_->next);
    head_pos_ = 0;
    if (spare_ == nullptr && head_ == tail_) {
      spare_ = done;
    } else {
      delete done;
      --chunks_;
    }
  }

  Chunk* head_ = nullptr;
  Chunk* tail_ = nullptr;
  Chunk* spare_ = nullptr;
  std::size_t head_pos_ = 0;            ///< next unit to read in head_
  std::size_t tail_pos_ = kChunkUnits;  ///< next free unit in tail_ (full: grow)
  /// Time of the last record pushed; the initial value makes the first
  /// record an escape, since no time is negative.
  std::int64_t pushed_ = -kMaxDelta - 1;
  std::int64_t consumed_ = 0;  ///< time of the last record consumed
  std::int64_t requests_ = 0;
  std::size_t chunks_ = 0;
};

class ProjectionRing {
 public:
  struct Entry {
    sim::Time when;
    int count = 0;
  };

  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }
  const Entry& operator[](std::size_t i) const { return buf_[(head_ + i) & mask_]; }
  const Entry& front() const { return buf_[head_ & mask_]; }
  const Entry& back() const { return buf_[(tail_ - 1) & mask_]; }

  void push_back(Entry e) {
    if (size() == buf_.size()) grow();
    buf_[tail_++ & mask_] = e;
  }
  void pop_front() { ++head_; }
  void pop_back() { --tail_; }

 private:
  void grow() {
    std::vector<Entry> bigger(std::max<std::size_t>(16, 2 * buf_.size()));
    for (std::size_t i = 0; i < size(); ++i) bigger[i] = (*this)[i];
    tail_ = size();
    head_ = 0;
    buf_.swap(bigger);
    mask_ = buf_.size() - 1;
  }

  std::vector<Entry> buf_;
  std::size_t head_ = 0;  ///< monotone indices, masked on access
  std::size_t tail_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace vprobe::wl
