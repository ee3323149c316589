#include "core/page_policy.hpp"

#include "numa/page_migration.hpp"

namespace vprobe::core {

PagePolicy::Result PagePolicy::run(hv::Hypervisor& hv) const {
  Result result;
  int budget = kMachineBudgetPerPeriod;
  for (hv::Vcpu* v : hv.all_vcpus()) {
    if (budget <= 0) break;
    if (!v->active()) continue;
    if (options_.memory_intensive_only && !hv::is_memory_intensive(v->vcpu_type)) {
      continue;
    }
    const hv::MemoryMap::Entry* entry = hv.memory_map().lookup(v->id());
    if (entry == nullptr || entry->memory == nullptr) continue;
    ++result.vcpus_considered;

    const numa::NodeId home = hv.topology().node_of(v->pcpu);
    for (const numa::Region& region : entry->regions) {
      if (budget <= 0) break;
      auto moved = numa::PageMigrator::rebalance(*entry->memory, region, home);
      // Respect the machine-wide budget even when the migrator's own
      // per-round cap is larger.
      if (moved.chunks_moved > budget) {
        // The migrator already moved them; count the overshoot against the
        // budget so the next period pays it back.
        budget = 0;
      } else {
        budget -= moved.chunks_moved;
      }
      result.chunks_moved += moved.chunks_moved;
      result.cost += moved.cost;
    }
  }
  return result;
}

}  // namespace vprobe::core
