// Dynamic VCPU-type bounds — the paper's first "future work" item
// (Section VI): instead of the hand-calibrated low=3 / high=20, adapt the
// Equation (3) bounds to the pressure distribution actually observed.
//
// Policy: collect the LLC access pressures of all VCPUs that executed this
// period, and move the bounds toward the 1/3- and 2/3-quantiles of that
// distribution with exponential smoothing (so one odd period cannot flip
// every classification).  Bounds are clamped to a sane envelope around the
// paper's static values.
#pragma once

#include <vector>

#include "core/analyzer.hpp"

namespace vprobe::core {

class DynamicBounds {
 public:
  static constexpr double kMinLow = 1.0;    ///< envelope for the low bound
  static constexpr double kMaxLow = 8.0;
  static constexpr double kMinHigh = 10.0;  ///< envelope for the high bound
  static constexpr double kMaxHigh = 40.0;
  static constexpr double kMinGap = 4.0;    ///< enforced separation low..high
  static constexpr double kSmoothing = 0.3;  ///< weight of the new quantile per period

  /// Update `analyzer`'s bounds from this period's pressures (one entry per
  /// VCPU that ran).  Empty input leaves the bounds untouched.
  static void update(PmuDataAnalyzer& analyzer, std::vector<double> pressures);
};

}  // namespace vprobe::core
