// Compact arrival bookkeeping for the request server (docs/SERVING.md,
// "Lazy arrival delivery").
//
// ArrivalLedger is the per-worker FIFO of (arrival time, request count)
// records that latency accounting drains in order.  Records are 8-byte words
// in a singly linked list of 4 KB chunks:
//
//   count == 1   one word: the arrival time in nanoseconds (simulated time
//                is never negative, so the top bit is clear);
//   count  > 1   a marker word (top bit set, low bits = count) followed by
//                the arrival time.
//
// A backlogged request therefore costs 8 B.  Consuming part of a record
// rewrites its marker in place, so the drain sees exactly the (when, count)
// sequence a std::deque<std::pair<Time, int>> would hold.
//
// Chunks are allocated on the first push past a full tail, never up front.
// A drained head chunk is kept as the one spare when the ledger is down to a
// single chunk (a small FIFO oscillating across a chunk boundary then never
// touches the allocator) and freed otherwise.  A ledger of W words thus holds
// at most max(2, ceil((W + kChunkWords - 1) / kChunkWords)) chunks: the live
// words plus the consumed prefix of the head chunk and the free suffix of the
// tail chunk.
//
// ProjectionRing holds a server's projected (not yet delivered) arrivals: a
// power-of-two ring with O(1) push and pop at both ends, allocated on the
// first push and doubled when full.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace vprobe::wl {

class ArrivalLedger {
 public:
  static constexpr std::size_t kChunkBytes = 4096;
  /// Record words per chunk: the chunk minus its link pointer.
  static constexpr std::size_t kChunkWords =
      kChunkBytes / sizeof(std::uint64_t) - 1;

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
    if (count != 1) push_word(kMarker | static_cast<std::uint64_t>(count));
    push_word(static_cast<std::uint64_t>(when.nanos()));
    requests_ += count;
  }

  /// Consume up to `n` requests oldest first, calling f(when, used) once per
  /// record touched; a partly consumed record keeps its remainder at the
  /// front.  Returns the requests left unmatched (0 unless the ledger ran
  /// dry).
  template <class F>
  int consume(int n, F&& f) {
    while (n > 0 && words_ != 0) {
      const std::uint64_t w = head_->word[head_pos_];
      if ((w & kMarker) == 0) {
        f(time_of(w), 1);
        --n;
        --requests_;
        pop_word();
        continue;
      }
      const int count = static_cast<int>(w & ~kMarker);
      const int used = std::min(count, n);
      f(time_of(word_after_head()), used);
      n -= used;
      requests_ -= used;
      if (used < count) {
        head_->word[head_pos_] = kMarker | static_cast<std::uint64_t>(count - used);
      } else {
        pop_word();
        pop_word();
      }
    }
    return n;
  }

 private:
  static constexpr std::uint64_t kMarker = 1ull << 63;

  struct Chunk {
    Chunk* next;
    std::uint64_t word[kChunkWords];
  };
  static_assert(sizeof(Chunk) == kChunkBytes);

  static sim::Time time_of(std::uint64_t w) {
    return sim::Time::ns(static_cast<std::int64_t>(w));
  }

  static void free_chain(Chunk* c) {
    while (c != nullptr) delete std::exchange(c, c->next);
  }

  /// The word after the head word (a marker's timestamp), which may open
  /// the next chunk.
  std::uint64_t word_after_head() const {
    return head_pos_ + 1 < kChunkWords ? head_->word[head_pos_ + 1]
                                       : head_->next->word[0];
  }

  void push_word(std::uint64_t w) {
    if (tail_pos_ == kChunkWords) grow();
    tail_->word[tail_pos_++] = w;
    ++words_;
  }

  void grow() {
    Chunk* c = spare_ != nullptr ? std::exchange(spare_, nullptr) : new_chunk();
    c->next = nullptr;
    if (tail_ != nullptr) {
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

  void pop_word() {
    if (--words_ == 0) {
      // Drained: head and tail share one chunk; restart it from the top.
      head_pos_ = 0;
      tail_pos_ = 0;
      return;
    }
    if (++head_pos_ < kChunkWords) return;
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
  std::size_t head_pos_ = 0;            ///< next word to read in head_
  std::size_t tail_pos_ = kChunkWords;  ///< next free word in tail_ (full: grow)
  std::size_t words_ = 0;
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
