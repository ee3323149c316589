// The PMU data analyzer (Section III-B) — the first of vProbe's three
// components.
//
// At the end of every sampling period it derives, for each VCPU:
//
//   * memory node affinity (Equation 1): the node holding the most pages the
//     VCPU accessed this period — arg-max over per-node access counts;
//   * LLC access pressure (Equation 2): R = LLCref / InstrRetired * alpha,
//     with alpha = 1000 (so R is LLC references per thousand instructions);
//   * VCPU type (Equation 3): LLC-FR below `low`, LLC-FI in [low, high),
//     LLC-T at or above `high`.  The paper derives low = 3 and high = 20
//     from the Figure 3 calibration; bench/fig3_bounds reproduces that
//     derivation.
#pragma once

#include "hv/vcpu.hpp"
#include "pmu/counters.hpp"

namespace vprobe::core {

/// The Equation (3) bounds; DynamicBounds moves them at run time.
struct AnalyzerConfig {
  double low = 3.0;    ///< Equation (3) LLC-FR / LLC-FI bound
  double high = 20.0;  ///< Equation (3) LLC-FI / LLC-T bound
};

class PmuDataAnalyzer {
 public:
  /// Equation (2) on a raw counter window.
  static double llc_pressure(const pmu::CounterSet& window);

  /// Equation (3).
  hv::VcpuType classify(double pressure) const;

  /// Run Equations (1)-(3) on the VCPU's current sampling window and store
  /// the results in its scheduler-visible fields.  A VCPU that retired no
  /// instructions this period keeps its previous characterisation.
  void analyze(hv::Vcpu& vcpu) const;

  AnalyzerConfig& config() { return cfg_; }
  const AnalyzerConfig& config() const { return cfg_; }

 private:
  AnalyzerConfig cfg_{};
};

}  // namespace vprobe::core
