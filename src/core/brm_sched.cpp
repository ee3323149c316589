#include "core/brm_sched.hpp"

#include <algorithm>

#include "hv/hypervisor.hpp"

namespace vprobe::core {
namespace {

/// Critical-section length of one penalty update under the global lock.
constexpr sim::Time kLockService = sim::Time::us(10);
/// Migration trials per period (each picks a random VCPU + best node).
constexpr int kTrialsPerPeriod = 8;
/// Minimum penalty improvement required to migrate.
constexpr double kImprovementThreshold = 0.05;
/// Probability of actually performing an improving migration (the "bias
/// random" part).
constexpr double kMigrateProbability = 0.75;

}  // namespace

void BrmScheduler::attach(hv::Hypervisor& hv) {
  CreditScheduler::attach(hv);
  sampler_ = std::make_unique<pmu::Sampler>(hv.engine(), options_.sampling_period);
  sampler_->start([this] { on_sampling_period(); });
}

void BrmScheduler::vcpu_created(hv::Vcpu& vcpu) {
  CreditScheduler::vcpu_created(vcpu);
  sampler_->register_pmu(&vcpu.pmu);
}

void BrmScheduler::vcpu_retired(hv::Vcpu& vcpu) {
  // Drop the sampler's raw pointer before the VCPU's storage dies; the
  // trial loop re-reads all_vcpus() each period and cannot dangle.
  sampler_->unregister_pmu(&vcpu.pmu);
}

double BrmScheduler::uncore_penalty(const hv::Vcpu& vcpu, numa::NodeId node) {
  const pmu::CounterSet w = vcpu.pmu.window_delta();
  if (w.instr_retired <= 0.0) return 0.0;
  const double total = w.total_mem_accesses();
  if (total <= 0.0) return 0.0;
  const double remote_frac =
      1.0 - w.mem_accesses[static_cast<std::size_t>(node)] / total;
  const double miss_intensity = w.llc_misses / w.instr_retired * 1000.0;
  return miss_intensity * remote_frac;
}

void BrmScheduler::locked_update(hv::Vcpu& vcpu, hv::Pcpu* where) {
  const sim::Time now = hv_->now();
  ++lock_updates_;

  // M/D/1 queueing wait at the global lock.
  const double service_s = kLockService.to_seconds();
  const double rho =
      std::min(update_rate_.rate(now) * service_s, 0.95);
  const double wait_s = service_s * rho / (2.0 * (1.0 - rho));
  update_rate_.record(1.0, now);

  const sim::Time cost =
      kLockService + sim::Time::seconds(wait_s);
  hv_->charge_overhead(hv::OverheadBucket::kLockWait, cost, where);

  vcpu.uncore_penalty =
      uncore_penalty(vcpu, hv_->topology().node_of(vcpu.pcpu));
}

hv::Decision BrmScheduler::do_schedule(hv::Pcpu& pcpu) {
  hv::Decision d = CreditScheduler::do_schedule(pcpu);
  if (d.vcpu != nullptr) locked_update(*d.vcpu, &pcpu);
  return d;
}

void BrmScheduler::on_sampling_period() {
  auto vcpus = hv_->all_vcpus();
  // Refresh every VCPU's penalty (each a serialised lock acquisition).
  for (hv::Vcpu* v : vcpus) {
    if (v->active()) locked_update(*v, &hv_->pcpu(0));
  }

  // Bias random migration: random VCPU, best node, migrate when the
  // system-wide penalty would drop.
  const int nodes = hv_->topology().num_nodes();
  for (int t = 0; t < kTrialsPerPeriod; ++t) {
    hv::Vcpu& v = *vcpus[hv_->rng().pick_index(vcpus.size())];
    if (!v.active()) continue;
    const numa::NodeId cur = hv_->topology().node_of(v.pcpu);
    numa::NodeId best = cur;
    double best_penalty = uncore_penalty(v, cur);
    for (numa::NodeId n = 0; n < nodes; ++n) {
      const double p = uncore_penalty(v, n);
      if (p < best_penalty) {
        best_penalty = p;
        best = n;
      }
    }
    const double improvement = uncore_penalty(v, cur) - best_penalty;
    if (best != cur && improvement > kImprovementThreshold &&
        hv_->rng().chance(kMigrateProbability)) {
      hv_->migrate_to_node(v, best);
    }
  }
}

}  // namespace vprobe::core
