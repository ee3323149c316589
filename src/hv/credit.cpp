#include "hv/credit.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "hv/hypervisor.hpp"

namespace vprobe::hv {

void CreditScheduler::vcpu_created(Vcpu& vcpu) {
  vcpu.credits = 0.0;
  vcpu.priority = CreditPrio::kUnder;
}

void CreditScheduler::refresh_priority(Vcpu& vcpu, bool demote_boost) const {
  if (vcpu.priority == CreditPrio::kBoost && !demote_boost) return;
  vcpu.priority = vcpu.credits < 0.0 ? CreditPrio::kOver : CreditPrio::kUnder;
}

void CreditScheduler::enqueue(Vcpu& vcpu) {
  assert(vcpu.state == VcpuState::kRunnable);
  hv_->pcpu(vcpu.pcpu).queue.insert(vcpu);
}

void CreditScheduler::vcpu_wake(Vcpu& vcpu) {
  // Xen's wakeup boost: an UNDER VCPU waking from sleep preempts CPU hogs.
  if (vcpu.priority == CreditPrio::kUnder) vcpu.priority = CreditPrio::kBoost;
  // Wake onto the last-used PCPU; the hypervisor then tickles every idle
  // peer (one batched reschedule, local node first), and each of them may
  // pull it over via steal() — that migration path is what makes plain
  // Credit NUMA-oblivious.
  enqueue(vcpu);
}

void CreditScheduler::requeue_preempted(Vcpu& vcpu) {
  refresh_priority(vcpu, /*demote_boost=*/true);
  enqueue(vcpu);
}

Vcpu* CreditScheduler::steal(Pcpu& thief, int weaker_than) {
  auto& pcpus = hv_->pcpus();
  const int n = static_cast<int>(pcpus.size());
  // The scan starts from a random peer: on real hardware which PCPU a
  // steal hits first depends on IPI races and who idled when, and it is in
  // any case blind to NUMA distance.  A fixed id-order scan would be
  // accidentally local-first on machines with low node counts.  The draw
  // happens even when nothing is queued, so the RNG stream does not depend
  // on how the scan is implemented.
  const int start = static_cast<int>(hv_->rng().uniform_int(0, n - 1));
  // Peers in (start + offset) % n order, visiting only non-empty queues:
  // an empty queue can never yield a victim.
  Vcpu* stolen = nullptr;
  const int victim = hv_->occupied_pcpus().find_from(start, [&](int pid) {
    if (pid == thief.id) return false;
    for (Vcpu* v : pcpus[static_cast<std::size_t>(pid)].queue.items()) {
      if (!v->allowed_on(thief.id)) continue;  // hard affinity (vcpu-pin)
      if (static_cast<int>(v->priority) < weaker_than) {
        stolen = v;
        return true;
      }
    }
    return false;
  });
  if (victim >= 0) pcpus[static_cast<std::size_t>(victim)].queue.remove(*stolen);
  return stolen;
}

Decision CreditScheduler::do_schedule(Pcpu& pcpu) {
  Vcpu* head = pcpu.queue.front();
  Vcpu* next = nullptr;

  if (head == nullptr) {
    // Nothing local: steal anything runnable.
    next = steal(pcpu, static_cast<int>(CreditPrio::kOver) + 1);
  } else if (head->priority == CreditPrio::kOver) {
    // Local head is in debt: prefer an UNDER/BOOST VCPU from a peer.
    next = steal(pcpu, static_cast<int>(CreditPrio::kOver));
  }
  if (next == nullptr && head != nullptr) {
    next = pcpu.queue.pop_front();
  }
  return Decision{next};
}

void CreditScheduler::tick(Pcpu& pcpu) {
  Vcpu* v = pcpu.current;
  if (v == nullptr) return;
  v->credit_active = true;  // sampled activity, like csched_vcpu_acct
  v->credits = std::max(v->credits - params_.credits_per_tick, params_.credit_floor);
  refresh_priority(*v, /*demote_boost=*/true);
}

void CreditScheduler::accounting() {
  // Weight-based, per-domain credit distribution (Xen semantics): every
  // domain with at least one active VCPU receives a weight-proportional
  // slice of the machine's credits, split evenly among its active VCPUs.
  // A VCPU is active when it consumed CPU during the last window or is
  // waiting for CPU right now; an 8-VCPU domain running a 4-thread app
  // therefore concentrates its whole slice on those 4 VCPUs — they stay
  // UNDER while always-running CPU hogs sink OVER, and that persistent
  // asymmetry is what keeps Credit's fairness steal churning.
  // Active = caught running by a tick this window, or waiting for CPU right
  // now.  Housekeeping threads that run for microseconds between ticks are
  // invisible here, exactly as in Xen — they neither earn credits nor
  // dilute their domain's share.
  auto is_active = [](const Vcpu& v) {
    return v.credit_active || v.state == VcpuState::kRunnable ||
           v.state == VcpuState::kRunning;
  };

  struct DomLoad {
    int weight = 0;
    int active_vcpus = 0;
  };
  std::unordered_map<const Domain*, DomLoad> doms;
  double total_weight = 0.0;
  for (Vcpu* v : hv_->all_vcpus()) {
    if (!v->active() || !is_active(*v)) continue;
    auto [it, inserted] = doms.try_emplace(v->domain());
    if (inserted) {
      it->second.weight = v->domain()->weight;
      total_weight += v->domain()->weight;
    }
    ++it->second.active_vcpus;
  }
  if (doms.empty()) return;

  const double ticks_per_acct =
      Hypervisor::kAccountingPeriod / Hypervisor::kTickPeriod;
  const double credit_total = params_.credits_per_tick * ticks_per_acct *
                              static_cast<double>(hv_->pcpus().size());

  for (Vcpu* v : hv_->all_vcpus()) {
    if (!v->active()) continue;
    if (is_active(*v)) {
      const DomLoad& dl = doms.at(v->domain());
      const double share =
          credit_total * dl.weight / total_weight / dl.active_vcpus;
      v->credits = std::clamp(v->credits + share, params_.credit_floor,
                              params_.credit_cap);
      refresh_priority(*v, /*demote_boost=*/false);
    }
    v->credit_active = false;
  }
}

}  // namespace vprobe::hv
