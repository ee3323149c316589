// Aggregated machine contention state.
//
// One MachineState instance per simulated host bundles the per-node shared
// LLC models, the per-node memory controllers, and the interconnect fabric.
// The hypervisor updates LLC occupancy as VCPUs are scheduled in and out;
// the cost model reads miss rates and latency factors from here and records
// the resulting traffic back.
#pragma once

#include <cstdint>
#include <vector>

#include "numa/interconnect.hpp"
#include "numa/llc_model.hpp"
#include "numa/machine_config.hpp"
#include "numa/mem_controller.hpp"

namespace vprobe::perf {

class MachineState {
 public:
  explicit MachineState(const numa::MachineConfig& cfg);

  numa::LlcModel& llc(numa::NodeId node) { return llcs_.at(static_cast<std::size_t>(node)); }
  const numa::LlcModel& llc(numa::NodeId node) const {
    return llcs_.at(static_cast<std::size_t>(node));
  }

  numa::MemController& imc(numa::NodeId node) { return imcs_.at(static_cast<std::size_t>(node)); }
  const numa::MemController& imc(numa::NodeId node) const {
    return imcs_.at(static_cast<std::size_t>(node));
  }

  numa::Interconnect& interconnect() { return interconnect_; }
  const numa::Interconnect& interconnect() const { return interconnect_; }

  int num_nodes() const { return static_cast<int>(llcs_.size()); }

  /// Hypervisor hook: VCPU `occupant` with cache demand `demand_bytes`
  /// started running on `node`.
  void occupant_in(numa::NodeId node, std::uint64_t occupant, double demand_bytes) {
    llc(node).set_demand(occupant, demand_bytes);
  }

  /// Hypervisor hook: VCPU `occupant` stopped running on `node`.
  void occupant_out(numa::NodeId node, std::uint64_t occupant) {
    llc(node).remove(occupant);
  }

  /// Enable/disable the bit-identical decay-factor memos in every tracker
  /// (the --no-rate-cache escape hatch reaches here).
  void set_decay_caches(bool enabled) {
    for (numa::MemController& imc : imcs_) imc.set_decay_cache(enabled);
    interconnect_.set_decay_cache(enabled);
  }

 private:
  std::vector<numa::LlcModel> llcs_;
  std::vector<numa::MemController> imcs_;
  numa::Interconnect interconnect_;
};

}  // namespace vprobe::perf
