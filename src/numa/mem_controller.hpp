// Integrated memory controller (IMC) model.
//
// Each node's IMC has a finite bandwidth (25.6 GB/s on the paper's Xeon
// E5620).  The model tracks the smoothed byte rate flowing through the
// controller and converts utilisation into a queueing delay factor applied
// to every DRAM access served by this node:
//
//   factor(rho) = 1 / (1 - min(rho, rho_max))        (M/M/1-style)
//
// clamped so a saturated controller stretches latency by at most
// `max_factor`.  This reproduces the paper's "memory controller contention"
// performance-degrading factor.
#pragma once

#include <algorithm>
#include <cstdint>

#include "numa/rate_tracker.hpp"
#include "sim/time.hpp"

namespace vprobe::numa {

class MemController {
 public:
  explicit MemController(double bandwidth_bytes_per_s,
                         sim::Time smoothing = sim::Time::ms(10))
      : bandwidth_(bandwidth_bytes_per_s), tracker_(smoothing) {}

  /// Record traffic of `bytes` served over `duration` ending at `now`.
  void record_traffic(double bytes, sim::Time now, sim::Time duration) {
    tracker_.record(bytes, now, duration);
    total_bytes_ += bytes;
  }

  /// Utilisation in [0, ~): smoothed rate over bandwidth.
  double utilization(sim::Time now) const {
    return tracker_.rate(now) / bandwidth_;
  }

  /// Latency multiplier applied to DRAM accesses served by this controller.
  /// Defined here so the cost model's per-segment evaluations inline it.
  double latency_factor(sim::Time now) const {
    const double rho = std::min(utilization(now), kRhoMax);
    const double factor = 1.0 / (1.0 - rho);
    return std::min(factor, kMaxFactor);
  }

  double bandwidth_bytes_per_s() const { return bandwidth_; }
  double total_bytes() const { return total_bytes_; }

  void set_decay_cache(bool enabled) { tracker_.set_decay_cache(enabled); }

 private:
  /// Utilisation cap and latency-multiplier ceiling of the queueing curve.
  static constexpr double kRhoMax = 0.95;
  static constexpr double kMaxFactor = 8.0;

  double bandwidth_;
  RateTracker tracker_;
  double total_bytes_ = 0.0;
};

}  // namespace vprobe::numa
