#include "core/dynamic_bounds.hpp"

#include <algorithm>
#include <cmath>

namespace vprobe::core {
namespace {

double quantile(std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

void DynamicBounds::update(PmuDataAnalyzer& analyzer,
                           std::vector<double> pressures) {
  if (pressures.empty()) return;
  std::sort(pressures.begin(), pressures.end());

  const double q_low = quantile(pressures, 1.0 / 3.0);
  const double q_high = quantile(pressures, 2.0 / 3.0);

  auto& cfg = analyzer.config();
  cfg.low += kSmoothing * (q_low - cfg.low);
  cfg.high += kSmoothing * (q_high - cfg.high);

  cfg.low = std::clamp(cfg.low, kMinLow, kMaxLow);
  cfg.high = std::clamp(cfg.high, kMinHigh, kMaxHigh);
  if (cfg.high - cfg.low < kMinGap) {
    cfg.high = cfg.low + kMinGap;
  }
}

}  // namespace vprobe::core
