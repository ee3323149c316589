#include "core/autonuma_sched.hpp"

#include "core/analyzer.hpp"
#include "hv/hypervisor.hpp"

namespace vprobe::core {
namespace {

/// A VCPU migrates only when one node holds at least this fraction of its
/// sampled accesses (mirrors NUMA balancing's preferred-node rule).
constexpr double kDominanceThreshold = 0.55;
/// Fault-sampling cost per active VCPU per period (page unmapping + fault
/// handling amortised).
constexpr sim::Time kSamplingCost = sim::Time::us(40);

}  // namespace

void AutoNumaScheduler::attach(hv::Hypervisor& hv) {
  CreditScheduler::attach(hv);
  PagePolicy::Options popts;
  popts.memory_intensive_only = false;  // NUMA balancing samples every task
  page_policy_ = PagePolicy(popts);
  sampler_ = std::make_unique<pmu::Sampler>(hv.engine(), options_.sampling_period);
  sampler_->start([this] { on_sampling_period(); });
}

void AutoNumaScheduler::vcpu_created(hv::Vcpu& vcpu) {
  CreditScheduler::vcpu_created(vcpu);
  sampler_->register_pmu(&vcpu.pmu);
}

void AutoNumaScheduler::vcpu_retired(hv::Vcpu& vcpu) {
  // Drop the sampler's raw pointer before the VCPU's storage dies; the
  // balancing pass re-reads all_vcpus() each period and cannot dangle.
  sampler_->unregister_pmu(&vcpu.pmu);
}

void AutoNumaScheduler::on_sampling_period() {
  // Keep the analyzer fields fresh: the page policy keys off vcpu_type and
  // downstream tooling expects them regardless of scheduler.
  const PmuDataAnalyzer analyzer;
  int sampled = 0;

  for (hv::Vcpu* v : hv_->all_vcpus()) {
    if (!v->active()) continue;
    analyzer.analyze(*v);
    ++sampled;

    const pmu::CounterSet window = v->pmu.window_delta();
    const double total = window.total_mem_accesses();
    if (total <= 0.0) continue;

    // Preferred node = dominant access target this period.
    const numa::NodeId preferred = window.busiest_node();
    if (preferred == numa::kInvalidNode) continue;
    const double share =
        window.mem_accesses[static_cast<std::size_t>(preferred)] / total;
    if (share < kDominanceThreshold) continue;

    const numa::NodeId current = hv_->topology().node_of(v->pcpu);
    if (current != preferred) {
      // Task-follows-memory: greedy, with no cross-node evenness constraint
      // — the defining difference from vProbe's Algorithm 1.
      hv_->migrate_to_node(*v, preferred);
      ++task_migrations_;
    }
  }

  // Memory-follows-task for whoever stayed put.
  const auto moved = page_policy_.run(*hv_);
  hv_->charge_overhead(hv::OverheadBucket::kBalancing, moved.cost,
                       &hv_->pcpu(0));

  hv_->charge_overhead(hv::OverheadBucket::kPmuCollection,
                       kSamplingCost * sampled, &hv_->pcpu(0));
}

}  // namespace vprobe::core
