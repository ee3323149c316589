#include "core/numa_balance.hpp"

#include <algorithm>

#include "core/analyzer.hpp"

namespace vprobe::core {

double NumaAwareBalancer::live_pressure(const hv::Vcpu& vcpu) {
  const pmu::CounterSet window = vcpu.pmu.window_delta();
  if (window.instr_retired <= 0.0) return vcpu.llc_pressure;
  return PmuDataAnalyzer::llc_pressure(window);
}

hv::Vcpu* NumaAwareBalancer::steal(hv::Hypervisor& hv, hv::Pcpu& thief,
                                   int weaker_than, bool local_only) {
  const auto& topo = hv.topology();
  auto& pcpus = hv.pcpus();

  for (numa::NodeId node : topo.nodes_by_distance(thief.node)) {
    if (local_only && node != thief.node) break;
    // loadList: the node's peers sorted by workload, heaviest first, ties in
    // id order.  Only peers with queued work enter it — an empty queue has
    // nothing to steal — so a node with none costs one word-AND per 64
    // PCPUs.  The buffer is reused, and sorting on (workload, id) is the
    // stable id-ordered sort without stable_sort's temporary buffer.
    load_list_.clear();
    hv.occupied_pcpus().for_each_common(topo.node_mask(node), [&](int pid) {
      if (pid != thief.id) load_list_.push_back(&pcpus[static_cast<std::size_t>(pid)]);
    });
    std::sort(load_list_.begin(), load_list_.end(),
              [](const hv::Pcpu* a, const hv::Pcpu* b) {
                if (a->workload() != b->workload()) {
                  return a->workload() > b->workload();
                }
                return a->id < b->id;
              });

    for (hv::Pcpu* victim : load_list_) {
      // Steal the eligible runnable VCPU with the smallest LLC pressure.
      hv::Vcpu* best = nullptr;
      double best_pressure = 0.0;
      for (hv::Vcpu* v : victim->queue.items()) {
        if (static_cast<int>(v->priority) >= weaker_than) continue;
        if (!v->allowed_on(thief.id)) continue;  // hard affinity (vcpu-pin)
        const double pressure = live_pressure(*v);
        if (best == nullptr || pressure < best_pressure) {
          best = v;
          best_pressure = pressure;
        }
      }
      if (best == nullptr) continue;
      victim->queue.remove(*best);
      if (node == thief.node) {
        ++stats_.local_steals;
      } else {
        ++stats_.remote_steals;
      }
      return best;
    }
  }
  return nullptr;
}

}  // namespace vprobe::core
