#include "workload/npb.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vprobe::wl {

NpbApp::NpbApp(hv::Hypervisor& hv, hv::Domain& domain, Config config,
               std::span<hv::Vcpu* const> vcpus)
    : hv_(&hv), name_(config.name.empty() ? config.profile : config.name) {
  if (config.threads < 1) throw std::invalid_argument("NpbApp: threads < 1");
  if (vcpus.size() < static_cast<std::size_t>(config.threads)) {
    throw std::invalid_argument("NpbApp: not enough VCPUs");
  }
  const AppProfile& prof = profile(config.profile);

  // Align the per-thread total to a whole number of iterations so every
  // thread retires its last instruction at a barrier boundary — otherwise a
  // finished thread would leave the others waiting forever.
  const double raw_total = prof.default_instructions * config.instr_scale;
  const double iterations =
      std::max(1.0, std::round(raw_total / kIterationInstructions));
  const double total = iterations * kIterationInstructions;

  // Data-parallel decomposition with genuinely shared data: one region all
  // threads read (boundary/global arrays — the kSharedFraction part) plus a
  // private slice per thread, further cut into the profile's phases.
  const std::int64_t shared_bytes = std::max<std::int64_t>(
      static_cast<std::int64_t>(static_cast<double>(prof.footprint_bytes) *
                                kSharedFraction),
      domain.memory().chunk_bytes());
  const numa::Region shared_region = domain.memory().alloc_region(shared_bytes);
  const std::int64_t per_thread_bytes =
      std::max<std::int64_t>((prof.footprint_bytes - shared_bytes) / config.threads,
                             domain.memory().chunk_bytes());

  threads_.reserve(static_cast<std::size_t>(config.threads));
  vcpus_.assign(vcpus.begin(), vcpus.begin() + config.threads);
  for (int i = 0; i < config.threads; ++i) {
    ComputeThread::Init init;
    init.profile = &prof;
    init.memory = &domain.memory();
    init.region = shared_region;
    const numa::Region own = domain.memory().alloc_region(per_thread_bytes);
    for (int ph = 0; ph < prof.phases; ++ph) {
      init.phase_regions.push_back(phase_slice(own, ph, prof.phases));
    }
    init.total_instructions = total;
    init.phases = prof.phases;
    init.shared_fraction = kSharedFraction;
    init.burst_instructions = kIterationInstructions;
    init.name = name_ + ".t" + std::to_string(i);
    threads_.push_back(std::make_unique<Thread>(std::move(init), this));
    Thread& t = *threads_.back();
    t.bind(hv, *vcpus_[static_cast<std::size_t>(i)]);
    t.add_on_finish([this](sim::Time now) { thread_finished(now); });
  }
}

void NpbApp::start() {
  start_time_ = hv_->now();
  for (hv::Vcpu* v : vcpus_) hv_->wake(*v);
}

hv::Outcome NpbApp::barrier_arrive(Thread& thread, sim::Time now) {
  (void)now;
  ++barrier_arrivals_;
  if (barrier_arrivals_ >= unfinished_threads()) {
    // Last arriver: release everyone and keep running.
    ++barrier_releases_;
    barrier_arrivals_ = 0;
    for (Thread* waiter : barrier_waiters_) hv_->wake(*waiter->vcpu());
    barrier_waiters_.clear();
    return {hv::OutcomeKind::kContinue};
  }
  barrier_waiters_.push_back(&thread);
  return {hv::OutcomeKind::kBlockUntilWake};
}

void NpbApp::thread_finished(sim::Time now) {
  ++finished_threads_;
  if (finished()) finish_time_ = now;
  // A thread that exits reduces the barrier's quorum; waiters whose release
  // condition this satisfies must not be left blocked forever.
  if (!barrier_waiters_.empty() && barrier_arrivals_ >= unfinished_threads()) {
    ++barrier_releases_;
    barrier_arrivals_ = 0;
    for (Thread* waiter : barrier_waiters_) hv_->wake(*waiter->vcpu());
    barrier_waiters_.clear();
  }
}

}  // namespace vprobe::wl
