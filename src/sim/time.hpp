// Simulated-time representation for the vProbe discrete-event simulator.
//
// Simulation time is a signed 64-bit count of nanoseconds wrapped in a small
// value type so that durations, rates and wall-clock seconds cannot be mixed
// up silently.  2^63 ns is ~292 years of simulated time, far beyond any
// experiment in this repository.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace vprobe::sim {

/// A point in simulated time (or a duration; the engine does not distinguish).
class Time {
 public:
  constexpr Time() = default;

  /// Named constructors.  Prefer these over the raw-ns constructor.
  static constexpr Time ns(std::int64_t v) { return Time{v}; }
  static constexpr Time us(std::int64_t v) { return Time{v * 1'000}; }
  static constexpr Time ms(std::int64_t v) { return Time{v * 1'000'000}; }
  static constexpr Time sec(std::int64_t v) { return Time{v * 1'000'000'000}; }

  /// Fractional seconds -> Time, rounding to the nearest nanosecond.
  static constexpr Time seconds(double s) {
    return Time{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }

  static constexpr Time zero() { return Time{0}; }
  static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t nanos() const { return ns_; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double to_millis() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double to_micros() const { return static_cast<double>(ns_) / 1e3; }

  constexpr bool is_negative() const { return ns_ < 0; }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ns_ + b.ns_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ns_ - b.ns_}; }
  friend constexpr Time operator*(Time a, std::int64_t k) { return Time{a.ns_ * k}; }
  friend constexpr Time operator*(std::int64_t k, Time a) { return Time{a.ns_ * k}; }
  friend constexpr Time operator/(Time a, std::int64_t k) { return Time{a.ns_ / k}; }
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }

  constexpr Time& operator+=(Time other) { ns_ += other.ns_; return *this; }
  constexpr Time& operator-=(Time other) { ns_ -= other.ns_; return *this; }

  friend constexpr auto operator<=>(Time, Time) = default;

  /// Scale a duration by a dimensionless factor (used by the cost model when
  /// stretching execution time by slowdown ratios).
  constexpr Time scaled(double factor) const {
    return Time{static_cast<std::int64_t>(static_cast<double>(ns_) * factor + 0.5)};
  }

  /// Human-readable rendering with an adaptive unit, e.g. "12.5ms".
  std::string str() const;

 private:
  explicit constexpr Time(std::int64_t v) : ns_(v) {}
  std::int64_t ns_ = 0;
};

inline std::string Time::str() const {
  const auto abs_ns = ns_ < 0 ? -ns_ : ns_;
  char buf[48];
  if (abs_ns >= 1'000'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fs", to_seconds());
  } else if (abs_ns >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fms", to_millis());
  } else if (abs_ns >= 1'000) {
    std::snprintf(buf, sizeof buf, "%.3fus", to_micros());
  } else {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns_));
  }
  return buf;
}

}  // namespace vprobe::sim
