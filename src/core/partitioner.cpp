#include "core/partitioner.hpp"

#include <algorithm>

namespace vprobe::core {
namespace {

/// Cost of one reassignment that actually moves a VCPU across nodes.
constexpr sim::Time kPerMigrationCost = sim::Time::us(3);

/// Index into the per-type group table: LLC-T first (it is assigned first).
constexpr int kTypeT = 0;
constexpr int kTypeFi = 1;

int type_index(hv::VcpuType t) {
  return t == hv::VcpuType::kLlcThrashing ? kTypeT : kTypeFi;
}

}  // namespace

PeriodicalPartitioner::Result PeriodicalPartitioner::partition(
    hv::Hypervisor& hv) const {
  Result result;
  const auto& topo = hv.topology();
  const int nodes = topo.num_nodes();

  // Build groupOfVc(c, p): unassigned memory-intensive VCPUs keyed by
  // (type, memory node affinity).  A VCPU that has no affinity yet (no
  // samples) is grouped under its current node.
  std::vector<std::deque<hv::Vcpu*>> groups(
      static_cast<std::size_t>(2 * nodes));
  auto group = [&](int type, numa::NodeId node) -> std::deque<hv::Vcpu*>& {
    return groups[static_cast<std::size_t>(type * nodes + node)];
  };

  int unassigned = 0;
  for (hv::Vcpu* v : hv.all_vcpus()) {
    if (!v->active()) continue;
    if (!hv::is_memory_intensive(v->vcpu_type)) continue;
    numa::NodeId affinity = v->node_affinity;
    if (affinity == numa::kInvalidNode) affinity = topo.node_of(v->pcpu);
    group(type_index(v->vcpu_type), affinity).push_back(v);
    ++unassigned;
  }
  result.considered = unassigned;

  std::vector<int> reassigned_load(static_cast<std::size_t>(nodes), 0);
  std::array<int, 2> remaining_by_type{0, 0};
  for (int t = 0; t < 2; ++t) {
    for (numa::NodeId n = 0; n < nodes; ++n) {
      remaining_by_type[static_cast<std::size_t>(t)] +=
          static_cast<int>(group(t, n).size());
    }
  }

  while (unassigned > 0) {
    // MIN-NODE: fewest reassigned VCPUs so far (ties -> lowest id).
    numa::NodeId min_node = 0;
    for (numa::NodeId n = 1; n < nodes; ++n) {
      if (reassigned_load[static_cast<std::size_t>(n)] <
          reassigned_load[static_cast<std::size_t>(min_node)]) {
        min_node = n;
      }
    }

    // LLC-T VCPUs are placed before LLC-FI ones (Algorithm 1 lines 3-6).
    const int type = remaining_by_type[kTypeT] > 0 ? kTypeT : kTypeFi;

    // Prefer a VCPU whose affinity *is* MIN-NODE; otherwise take from the
    // largest group of this type to even out the groups (lines 7-11).
    hv::Vcpu* vc = nullptr;
    if (!group(type, min_node).empty()) {
      vc = group(type, min_node).front();
      group(type, min_node).pop_front();
    } else {
      numa::NodeId biggest = 0;
      for (numa::NodeId n = 1; n < nodes; ++n) {
        if (group(type, n).size() > group(type, biggest).size()) biggest = n;
      }
      vc = group(type, biggest).front();
      group(type, biggest).pop_front();
    }

    --remaining_by_type[static_cast<std::size_t>(type)];
    --unassigned;
    ++reassigned_load[static_cast<std::size_t>(min_node)];
    ++result.reassigned;
    result.cost += kPerVcpuCost;

    // Algorithm 1 line 13 migrates to MIN-NODE's least loaded PCPU.  A VCPU
    // already on MIN-NODE stays put unless a strictly less loaded PCPU
    // exists there (its own PCPU ties by construction once its own presence
    // is discounted) — gratuitous same-node hops would only shed L1/L2
    // warmth.
    const numa::NodeId from = topo.node_of(vc->pcpu);
    if (from == min_node) {
      const hv::Pcpu& cur = hv.pcpu(vc->pcpu);
      const hv::Pcpu& target = hv.least_loaded_pcpu(min_node);
      const int cur_load = cur.workload() + (cur.busy() ? 1 : 0) - 1;
      const int tgt_load = target.workload() + (target.busy() ? 1 : 0);
      if (cur_load <= tgt_load) continue;
    } else {
      ++result.cross_node_moves;
      result.cost += kPerMigrationCost;
    }
    hv.migrate_to_node(*vc, min_node);
  }
  return result;
}

}  // namespace vprobe::core
