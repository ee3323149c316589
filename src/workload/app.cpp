#include "workload/app.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace vprobe::wl {

ComputeThread::ComputeThread(Init init)
    : profile_(init.profile),
      memory_(init.memory),
      region_(init.region),
      phase_regions_(std::move(init.phase_regions)),
      total_(init.total_instructions),
      phases_(phase_regions_.empty() ? std::max(1, init.phases)
                                     : static_cast<int>(phase_regions_.size())),
      shared_fraction_(std::clamp(init.shared_fraction, 0.0, 1.0)),
      name_(std::move(init.name)),
      burst_rng_(0x9e3779b9u ^
                 static_cast<std::uint64_t>(init.region.first_chunk * 2654435761ll)),
      burst_budget_(init.burst_instructions) {
  if (profile_ == nullptr) throw std::invalid_argument("ComputeThread: no profile");
  if (memory_ == nullptr) throw std::invalid_argument("ComputeThread: no memory");
  if (region_.empty()) throw std::invalid_argument("ComputeThread: empty region");
  if (total_ <= 0.0) throw std::invalid_argument("ComputeThread: no work");
}

void ComputeThread::bind(hv::Hypervisor& hv, hv::Vcpu& vcpu) {
  hv_ = &hv;
  vcpu_ = &vcpu;
  // Derive the burst-jitter stream from the run seed (plus stable per-thread
  // salts) rather than the constructor's region-only fallback: two runs of
  // the same scenario at different seeds must not share jitter sequences,
  // and two threads on the same region must not either.  Seeding here keeps
  // the hypervisor's own rng() stream untouched.
  burst_rng_.reseed(hv.config().seed ^
                    (static_cast<std::uint64_t>(region_.first_chunk) *
                     0x9e3779b97f4a7c15ull) ^
                    (static_cast<std::uint64_t>(vcpu.id()) * 0xbf58476d1ce4e5b9ull));
  hv.bind_work(vcpu, *this);
  // Publish the regions this thread works on, so page-migration policies
  // can see them (the stand-in for access-bit scanning).
  std::vector<numa::Region> regions;
  regions.push_back(region_);
  regions.insert(regions.end(), phase_regions_.begin(), phase_regions_.end());
  hv.memory_map().register_vcpu(vcpu.id(), memory_, std::move(regions));
}

int ComputeThread::current_phase() const {
  const int phase = static_cast<int>(executed_ / total_ * phases_);
  return std::min(phase, phases_ - 1);
}

numa::NodeId ComputeThread::current_node() const {
  assert(hv_ != nullptr && vcpu_ != nullptr);
  return hv_->topology().node_of(vcpu_->pcpu);
}

numa::Region phase_slice(const numa::Region& region, int phase, int phases) {
  assert(phases >= 1 && phase >= 0 && phase < phases);
  const std::int64_t per = std::max<std::int64_t>(1, region.num_chunks / phases);
  const std::int64_t first = region.first_chunk + per * phase;
  const std::int64_t last =
      (phase == phases - 1) ? region.first_chunk + region.num_chunks
                            : std::min(first + per, region.first_chunk + region.num_chunks);
  return numa::Region{first, std::max<std::int64_t>(1, last - first)};
}

numa::Region ComputeThread::phase_region(int phase) const {
  if (!phase_regions_.empty()) {
    return phase_regions_.at(static_cast<std::size_t>(phase));
  }
  return phase_slice(region_, phase, phases_);
}

void ComputeThread::refresh_fractions() {
  const int phase = current_phase();
  if (phase == cached_phase_ &&
      cached_placement_version_ == memory_->placement_version()) {
    return;
  }
  cached_phase_ = phase;
  cached_placement_version_ = memory_->placement_version();

  const numa::Region slice = phase_region(phase);
  const auto& phase_frac = memory_->node_fractions(slice);
  const auto& whole_frac = memory_->node_fractions(region_);
  frac_buf_.fill(0.0);
  const std::size_t n = std::min(frac_buf_.size(), phase_frac.size());
  for (std::size_t i = 0; i < n; ++i) {
    frac_buf_[i] = (1.0 - shared_fraction_) * phase_frac[i] +
                   shared_fraction_ * whole_frac[i];
  }
}

hv::BurstPlan ComputeThread::next_burst(sim::Time now) {
  (void)now;
  assert(!finished_ && "next_burst on a finished thread");

  // First-touch: place the current phase's pages where we run, as the guest
  // would when streaming through new data.
  if (memory_->policy() == numa::PlacementPolicy::kFirstTouch) {
    const int phase = current_phase();
    const numa::Region slice = phase_region(phase);
    const double phase_len = total_ / phases_;
    const double into_phase = (executed_ - phase * phase_len) / phase_len;
    memory_->touch(slice, std::min(1.0, into_phase + 0.25), current_node());
  }

  refresh_fractions();

  hv::BurstPlan plan;
  double remaining = total_ - executed_;
  if (burst_budget_ > 0.0) {
    remaining = std::min(remaining, burst_budget_ - burst_done_);
  }
  plan.instructions = std::max(remaining, 1.0);
  // Burst-level variation: real access streams are not stationary at the
  // millisecond scale; a short PMU window reads a jittered view of the
  // long-run behaviour.  Unbiased multiplicative jitter, so long windows
  // converge to the profile values.
  const double jitter =
      1.0 + kBurstiness * (2.0 * burst_rng_.uniform() - 1.0);
  plan.profile.rpti = profile_->rpti * jitter;
  plan.profile.solo_miss = std::min(1.0, profile_->solo_miss * jitter);
  plan.profile.miss_sensitivity = profile_->miss_sensitivity;
  plan.profile.working_set_bytes = profile_->working_set_bytes;
  plan.profile.node_fractions = std::span<const double>(frac_buf_.data(), frac_buf_.size());
  return plan;
}

hv::Outcome ComputeThread::advance(double instructions, sim::Time now) {
  executed_ += instructions;
  burst_done_ += instructions;

  // A stopped thread retires on its next stop point without firing the
  // finish listeners — it is being shut down, not completing.
  if (stopped_) {
    finished_ = true;
    return {hv::OutcomeKind::kFinished};
  }

  // Half-instruction epsilon: executed_ accumulates across many segments
  // and floating-point rounding must not leave a thread one micro-burst
  // short of a barrier its siblings already passed.
  if (executed_ >= total_ - 0.5) {
    finished_ = true;
    for (const auto& listener : finish_listeners_) listener(now);
    return {hv::OutcomeKind::kFinished};
  }
  if (burst_budget_ > 0.0 && burst_done_ >= burst_budget_ - 0.5) {
    burst_done_ = 0.0;
    return on_burst_end(now);
  }
  return {hv::OutcomeKind::kContinue};
}

}  // namespace vprobe::wl
