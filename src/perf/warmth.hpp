// Cache-warmth model.
//
// Migrating a VCPU costs it its cache footprint: everything on a cross-node
// move (the new socket's LLC holds none of its data), L1/L2 only on a move
// within the node.  Warmth is a scalar in [0, 1]; a cold VCPU suffers an
// extra miss-rate term that fades as it executes instructions and refills
// the caches.  This is what makes gratuitous migration — the behaviour
// vProbe suppresses — actually expensive in the simulator.
#pragma once

#include <algorithm>
#include <cmath>

namespace vprobe::perf {

class CacheWarmth {
 public:
  /// Instructions needed to recover ~63% of lost warmth.
  static constexpr double kRefillInstructions = 20e6;
  /// Extra LLC miss rate at warmth 0 (decays linearly with warmth).
  static constexpr double kColdMissBoost = 0.30;

  double value() const { return warmth_; }

  /// Apply a migration penalty.
  void on_migration(bool cross_node) {
    warmth_ *= cross_node ? kCrossNodeRetention : kSameNodeRetention;
  }

  /// Warm up after executing `instructions`.
  void on_executed(double instructions) {
    if (instructions <= 0.0) return;
    const double k = 1.0 - std::exp(-instructions / kRefillInstructions);
    warmth_ += (1.0 - warmth_) * k;
    warmth_ = std::clamp(warmth_, 0.0, 1.0);
  }

  /// Additional LLC miss rate due to cold caches.
  double extra_miss_rate() const { return kColdMissBoost * (1.0 - warmth_); }

 private:
  /// Warmth retained when migrating within a node (LLC survives).
  static constexpr double kSameNodeRetention = 0.75;
  /// Warmth retained when migrating across nodes (nothing survives).
  static constexpr double kCrossNodeRetention = 0.0;

  double warmth_ = 1.0;
};

}  // namespace vprobe::perf
