// Exponentially weighted rate tracker.
//
// The memory controller and interconnect models need a smooth estimate of
// "bytes per second flowing through me right now".  Events report byte
// counts at irregular simulated times; RateTracker maintains an EWMA rate
// with a configurable time constant.  The decay is applied lazily at read
// and record time, so idle components cost nothing.
//
// Hot-path notes (all bit-identical to the naive formulation):
//  - An idle tracker (`rate_ == 0.0`) short-circuits both `rate()` and
//    `decay_to()`: 0 * exp(x) == +0.0 for every finite x, so the exp can be
//    skipped outright.
//  - Decay factors are memoized by their exact integer-nanosecond `dt` key
//    (segment durations repeat heavily: 10 ms ticks, 30 ms slices), so the
//    common repeated `std::exp(-dt/tau)` collapses to a table hit that
//    returns the identical double.
//  - Replacing the per-record `amount / tau_s_` division with a precomputed
//    reciprocal was measured to flip the last mantissa bit on ~13% of
//    operations (1/0.01 rounds to exactly 100.0, but a/tau != a*100.0 in
//    general), which would break the byte-identical golden traces — so the
//    division stays and the transcendental, not the divide, is what the
//    cache removes.
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/time.hpp"

namespace vprobe::numa {

class RateTracker {
 public:
  /// `time_constant` controls smoothing: contributions decay by 1/e per
  /// time constant.  10 ms tracks scheduler-quantum-scale shifts well.
  explicit RateTracker(sim::Time time_constant = sim::Time::ms(10))
      : tau_s_(time_constant.to_seconds()) {}

  /// Record `amount` (e.g. bytes) observed at `now`.  Each record is an
  /// impulse that adds amount/tau to the decaying rate; for impulses
  /// arriving with aggregate rate R (amount per second) the EWMA converges
  /// to R.  Impulses are linear, so overlapping flows from several PCPUs
  /// superpose correctly — which a duration-blended EWMA would not.
  /// `duration` is accepted for caller convenience but does not change the
  /// math (segment durations are far below the time constant).
  void record(double amount, sim::Time now, sim::Time duration = sim::Time::zero()) {
    (void)duration;
    decay_to(now);
    rate_ += amount / tau_s_;
  }

  /// Current smoothed rate (amount per second) as of `now`.
  double rate(sim::Time now) const {
    if (rate_ == 0.0) return rate_;  // idle: time-invariant, no exp needed
    const sim::Time dt = now - last_;
    if (dt <= sim::Time::zero()) return rate_;
    return rate_ * decay_factor(dt);
  }

  /// Enable/disable the exact-key decay-factor memo (it is bit-identical by
  /// construction; the switch exists so the differential cache-on/off tests
  /// can cover the uncached expression too).
  void set_decay_cache(bool enabled) { decay_cache_enabled_ = enabled; }

 private:
  void decay_to(sim::Time now) {
    const sim::Time dt = now - last_;
    if (dt > sim::Time::zero()) {
      // Idle fast path: 0 * exp == +0.0, only the timestamp must advance.
      if (rate_ != 0.0) rate_ *= decay_factor(dt);
      last_ = now;
    }
  }

  /// exp(-dt/tau), memoized by the exact integer-ns dt.  The cached value
  /// is the very double the direct expression produces (same `to_seconds()`
  /// conversion, same division, same `std::exp` call), so hits are
  /// bit-identical by construction.
  double decay_factor(sim::Time dt) const {
    if (!decay_cache_enabled_) {
      return std::exp(-dt.to_seconds() / tau_s_);
    }
    const std::int64_t key = dt.nanos();
    const std::size_t idx =
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >>
        (64 - kDecayCacheBits);
    DecayEntry& e = decay_cache_[idx];
    if (e.dt_ns != key) {
      e.dt_ns = key;
      e.factor = std::exp(-dt.to_seconds() / tau_s_);
    }
    return e.factor;
  }

  /// Direct-mapped exact-key memo.  32 entries catches the handful of
  /// repeating segment-boundary deltas a phase produces; collisions just
  /// recompute.  dt is always > 0 when looked up, so 0 is a safe sentinel.
  static constexpr int kDecayCacheBits = 5;
  struct DecayEntry {
    std::int64_t dt_ns = 0;
    double factor = 1.0;
  };

  double tau_s_;
  double rate_ = 0.0;
  sim::Time last_ = sim::Time::zero();
  bool decay_cache_enabled_ = true;
  mutable DecayEntry decay_cache_[1u << kDecayCacheBits];
};

}  // namespace vprobe::numa
