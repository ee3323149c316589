// NUMA topology: the static node <-> PCPU mapping derived from a
// MachineConfig, plus the id vocabulary used across the code base.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "numa/machine_config.hpp"
#include "numa/pcpu_mask.hpp"

namespace vprobe::numa {

using NodeId = std::int32_t;
using PcpuId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr PcpuId kInvalidPcpu = -1;

/// Immutable mapping between PCPUs and NUMA nodes.
class Topology {
 public:
  explicit Topology(const MachineConfig& cfg);

  int num_nodes() const { return num_nodes_; }
  int num_pcpus() const { return static_cast<int>(pcpu_node_.size()); }
  int cores_per_node() const { return cores_per_node_; }

  NodeId node_of(PcpuId pcpu) const { return pcpu_node_.at(static_cast<std::size_t>(pcpu)); }

  /// All PCPUs belonging to `node`, in id order.
  std::span<const PcpuId> pcpus_of(NodeId node) const {
    return node_pcpus_.at(static_cast<std::size_t>(node));
  }

  /// The same set as pcpus_of(node), as a mask over all of the machine's
  /// PCPUs (for intersecting with the hypervisor's run-queue occupancy).
  const PcpuMask& node_mask(NodeId node) const {
    return node_masks_[static_cast<std::size_t>(node)];
  }

  bool same_node(PcpuId a, PcpuId b) const { return node_of(a) == node_of(b); }

  bool valid_node(NodeId n) const { return n >= 0 && n < num_nodes_; }

  /// Nodes ordered by interconnect distance from `from` (self first; with a
  /// flat QPI fabric all remote nodes are equidistant and follow id order).
  std::span<const NodeId> nodes_by_distance(NodeId from) const {
    return distance_order_.at(static_cast<std::size_t>(from));
  }

 private:
  int num_nodes_;
  int cores_per_node_;
  std::vector<NodeId> pcpu_node_;
  std::vector<std::vector<PcpuId>> node_pcpus_;
  std::vector<PcpuMask> node_masks_;
  std::vector<std::vector<NodeId>> distance_order_;
};

}  // namespace vprobe::numa
