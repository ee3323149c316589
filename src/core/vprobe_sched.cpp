#include "core/vprobe_sched.hpp"

#include "hv/hypervisor.hpp"

namespace vprobe::core {
namespace {

/// Per-VCPU PMU read-out cost at each period boundary.
constexpr sim::Time kPmuReadCost = sim::Time::ns(250);

}  // namespace

void VprobeScheduler::attach(hv::Hypervisor& hv) {
  CreditScheduler::attach(hv);
  sampler_ = std::make_unique<pmu::Sampler>(hv.engine(), options_.sampling_period);
  sampler_->start([this] { on_sampling_period(); });
}

void VprobeScheduler::vcpu_created(hv::Vcpu& vcpu) {
  CreditScheduler::vcpu_created(vcpu);
  sampler_->register_pmu(&vcpu.pmu);
}

void VprobeScheduler::vcpu_retired(hv::Vcpu& vcpu) {
  // The sampler holds a raw pointer into the dying VCPU; drop it before the
  // next window roll.  Analyzer/partitioner state is re-derived from
  // all_vcpus() each period, so nothing else can dangle.
  sampler_->unregister_pmu(&vcpu.pmu);
}

hv::Vcpu* VprobeScheduler::steal(hv::Pcpu& thief, int weaker_than) {
  // vProbe replaces Credit's load-balance strategy with Algorithm 2 —
  // local node first, heaviest PCPU first, smallest LLC pressure.  A
  // genuinely idle PCPU may reach across nodes (Algorithm 2's nextNode()
  // loop); the credit-fairness steal (local head in debt) stays node-local,
  // because yanking an UNDER VCPU across the interconnect to fix a credit
  // imbalance is precisely the "unnecessary remote memory access" the
  // mechanism exists to avoid — cross-node placement belongs to the
  // periodical partitioner.
  if (options_.enable_numa_balance) {
    const bool idle_steal =
        weaker_than > static_cast<int>(hv::CreditPrio::kOver);
    return balancer_.steal(*hv_, thief, weaker_than, /*local_only=*/!idle_steal);
  }
  return CreditScheduler::steal(thief, weaker_than);
}

void VprobeScheduler::on_sampling_period() {
  // (a) PMU data collection: read every active VCPU's counter window.
  int analyzed = 0;
  std::vector<double> pressures;
  for (hv::Vcpu* v : hv_->all_vcpus()) {
    if (!v->active()) continue;
    analyzer_.analyze(*v);
    if (v->pmu.window_delta().instr_retired > 0.0) {
      pressures.push_back(v->llc_pressure);
    }
    ++analyzed;
  }
  hv_->charge_overhead(hv::OverheadBucket::kPmuCollection,
                       kPmuReadCost * analyzed, &hv_->pcpu(0));

  if (options_.dynamic_bounds) {
    DynamicBounds::update(analyzer_, std::move(pressures));
  }

  // (b) VCPU periodical partitioning (Algorithm 1).
  if (options_.enable_partitioning) {
    const auto result = partitioner_.partition(*hv_);
    ++partition_rounds_;
    partition_moves_ += static_cast<std::uint64_t>(result.cross_node_moves);
    hv_->charge_overhead(hv::OverheadBucket::kPartitioning, result.cost,
                         &hv_->pcpu(0));
  }

  // (c) Section VI extension: pull data toward the (re)placed VCPUs.
  if (options_.page_migration) {
    const auto moved = page_policy_.run(*hv_);
    hv_->charge_overhead(hv::OverheadBucket::kBalancing, moved.cost,
                         &hv_->pcpu(0));
    if (moved.chunks_moved > 0) {
      hv_->emit(trace::EventKind::kPageMove, -1, -1, moved.chunks_moved);
    }
  }
}

}  // namespace vprobe::core
