// A set of PCPU ids: one bit per PCPU, stored as ceil(P/64) 64-bit words.
//
// Two owners use it.  Topology keeps one immutable mask per NUMA node, and
// the hypervisor keeps the run-queue occupancy set (bit p set <=> PCPU p's
// run queue is non-empty; RunQueue flips it).  Idle-time steals walk the
// set bits of the occupancy set, alone or intersected with a node mask, so
// a steal costs what is queued rather than how many PCPUs the host has.
// There is a single code path for every machine size: a 72-PCPU host
// simply has two words.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vprobe::numa {

class PcpuMask {
 public:
  PcpuMask() = default;
  /// All bits clear, sized for PCPU ids [0, num_pcpus).
  explicit PcpuMask(int num_pcpus)
      : words_(static_cast<std::size_t>((num_pcpus + 63) / 64), 0) {}

  void set(int p) { words_[word_index(p)] |= bit(p); }
  bool test(int p) const { return (words_[word_index(p)] & bit(p)) != 0; }

  /// The word that holds `p`'s bit.  Stable for the mask's lifetime (the
  /// size is fixed at construction), so a run queue can keep a pointer to
  /// it and flip its own bit without knowing the hypervisor.
  std::uint64_t* word_of(int p) { return &words_[word_index(p)]; }
  static std::uint64_t bit(int p) { return std::uint64_t{1} << (p & 63); }

  /// Calls fn(p) for the set bits p >= start in ascending order, then for
  /// the set bits p < start in ascending order — the order of a
  /// (start + offset) % n walk, restricted to the set.  Stops at, and
  /// returns, the first p for which fn returns true; -1 when none does.
  /// Each word is read before its bits are visited, so fn may clear the
  /// bit it stops on.
  template <class Fn>
  int find_from(int start, Fn&& fn) const {
    const std::size_t first = word_index(start);
    const std::uint64_t at_or_above = ~std::uint64_t{0} << (start & 63);
    for (std::size_t w = first; w < words_.size(); ++w) {
      const std::uint64_t bits = w == first ? words_[w] & at_or_above : words_[w];
      if (const int p = find_in_word(w, bits, fn); p >= 0) return p;
    }
    for (std::size_t w = 0; w <= first && w < words_.size(); ++w) {
      const std::uint64_t bits = w == first ? words_[w] & ~at_or_above : words_[w];
      if (const int p = find_in_word(w, bits, fn); p >= 0) return p;
    }
    return -1;
  }

  /// Calls fn(p), in ascending order, for every p set in both this mask
  /// and `other` (which must have the same size).
  template <class Fn>
  void for_each_common(const PcpuMask& other, Fn&& fn) const {
    auto visit = [&](int p) {
      fn(p);
      return false;
    };
    for (std::size_t w = 0; w < words_.size(); ++w) {
      find_in_word(w, words_[w] & other.words_[w], visit);
    }
  }

 private:
  static std::size_t word_index(int p) { return static_cast<std::size_t>(p) >> 6; }

  template <class Fn>
  static int find_in_word(std::size_t w, std::uint64_t bits, Fn& fn) {
    while (bits != 0) {
      const int p = static_cast<int>(w * 64) + std::countr_zero(bits);
      bits &= bits - 1;
      if (fn(p)) return p;
    }
    return -1;
  }

  std::vector<std::uint64_t> words_;
};

}  // namespace vprobe::numa
