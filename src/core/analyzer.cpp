#include "core/analyzer.hpp"

namespace vprobe::core {
namespace {

/// Equation (2) scaling constant.
constexpr double kAlpha = 1000.0;

}  // namespace

double PmuDataAnalyzer::llc_pressure(const pmu::CounterSet& window) {
  if (window.instr_retired <= 0.0) return 0.0;
  return window.llc_refs / window.instr_retired * kAlpha;
}

hv::VcpuType PmuDataAnalyzer::classify(double pressure) const {
  if (pressure < cfg_.low) return hv::VcpuType::kLlcFriendly;
  if (pressure < cfg_.high) return hv::VcpuType::kLlcFitting;
  return hv::VcpuType::kLlcThrashing;
}

void PmuDataAnalyzer::analyze(hv::Vcpu& vcpu) const {
  const pmu::CounterSet window = vcpu.pmu.window_delta();
  if (window.instr_retired <= 0.0) return;  // idle this period: keep old view

  // Equation (1): node with the most accessed pages this period.
  const numa::NodeId affinity = window.busiest_node();
  if (affinity != numa::kInvalidNode) vcpu.node_affinity = affinity;

  // Equations (2) and (3).
  vcpu.llc_pressure = llc_pressure(window);
  vcpu.vcpu_type = classify(vcpu.llc_pressure);
}

}  // namespace vprobe::core
