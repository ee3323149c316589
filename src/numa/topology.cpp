#include "numa/topology.hpp"

namespace vprobe::numa {

Topology::Topology(const MachineConfig& cfg)
    : num_nodes_(cfg.num_nodes), cores_per_node_(cfg.cores_per_node) {
  cfg.validate();
  pcpu_node_.reserve(static_cast<std::size_t>(cfg.total_pcpus()));
  node_pcpus_.resize(static_cast<std::size_t>(num_nodes_));
  node_masks_.assign(static_cast<std::size_t>(num_nodes_),
                     PcpuMask(cfg.total_pcpus()));
  for (NodeId n = 0; n < num_nodes_; ++n) {
    for (int c = 0; c < cores_per_node_; ++c) {
      const auto pcpu = static_cast<PcpuId>(pcpu_node_.size());
      pcpu_node_.push_back(n);
      node_pcpus_[static_cast<std::size_t>(n)].push_back(pcpu);
      node_masks_[static_cast<std::size_t>(n)].set(pcpu);
    }
  }
  distance_order_.resize(static_cast<std::size_t>(num_nodes_));
  for (NodeId from = 0; from < num_nodes_; ++from) {
    auto& order = distance_order_[static_cast<std::size_t>(from)];
    order.push_back(from);
    for (NodeId n = 0; n < num_nodes_; ++n) {
      if (n != from) order.push_back(n);
    }
  }
}

}  // namespace vprobe::numa
