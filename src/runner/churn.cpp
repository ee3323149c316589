#include "runner/churn.hpp"

#include <algorithm>
#include <string>

#include "cluster/cluster.hpp"
#include "runner/fleet.hpp"

namespace vprobe::runner {

ChurnDriver::ChurnDriver(cluster::Cluster& cluster, ChurnOptions options)
    : cluster_(&cluster),
      options_(options),
      rng_(options.seed ^ 0xc4ceb9fe1a85ec53ull) {
  for (int id = 0; id < cluster.num_hosts(); ++id) {
    chunk_bytes_ =
        std::max(chunk_bytes_, cluster.host(id).config().machine.chunk_bytes);
  }
  options_.min_vcpus = std::max(1, options_.min_vcpus);
  options_.max_vcpus = std::max(options_.min_vcpus, options_.max_vcpus);
  options_.min_mem_bytes = std::max(chunk_bytes_, options_.min_mem_bytes);
  options_.max_mem_bytes =
      std::max(options_.min_mem_bytes, options_.max_mem_bytes);
}

sim::Engine& ChurnDriver::engine() { return cluster_->engine(); }

ChurnDriver::~ChurnDriver() {
  arrival_event_.cancel();
  for (auto& vm : live_) {
    vm->depart_event.cancel();
    vm->pause_event.cancel();
    vm->resume_event.cancel();
  }
}

sim::Time ChurnDriver::exp_delay(sim::Time mean) {
  const double mean_s = std::max(mean.to_seconds(), 1e-9);
  return sim::Time::seconds(rng_.exponential(1.0 / mean_s));
}

void ChurnDriver::start() {
  arrival_event_ = engine().schedule(options_.start_after,
                                     [this] { schedule_next_arrival(); });
}

void ChurnDriver::schedule_next_arrival() {
  if (draining_) return;
  if (options_.max_arrivals > 0 &&
      arrivals_ + skipped_ >= static_cast<std::uint64_t>(options_.max_arrivals)) {
    return;
  }
  arrival_event_ = engine().schedule(exp_delay(options_.mean_interarrival),
                                     [this] { on_arrival(); });
}

void ChurnDriver::on_arrival() {
  schedule_next_arrival();
  if (static_cast<int>(live_.size()) >= options_.max_live) {
    ++skipped_;
    return;
  }

  // Draw the guest flavour, then let the control plane place or refuse it.
  const int vcpus = static_cast<int>(
      rng_.uniform_int(options_.min_vcpus, options_.max_vcpus));
  std::int64_t mem = rng_.uniform_int(options_.min_mem_bytes,
                                      options_.max_mem_bytes);
  mem = std::max(chunk_bytes_, (mem / chunk_bytes_) * chunk_bytes_);
  const bool ticker = rng_.chance(options_.ticker_fraction);

  cluster::VmSpec cvm;
  cvm.name = "churn" + std::to_string(next_churn_index_);
  cvm.mem_bytes = mem;
  cvm.vcpus = vcpus;
  cvm.workload = ticker ? ticker_workload() : hungry_workload();
  cvm.dirty_bytes_per_s =
      ticker ? ticker_dirty_rate(mem) : hungry_dirty_rate(mem);
  const int vm_id = cluster_->admit(std::move(cvm));
  if (vm_id < 0) {
    ++skipped_;
    return;
  }
  ++next_churn_index_;
  ++arrivals_;

  auto vm = std::make_unique<LiveVm>();
  vm->vm_id = vm_id;
  const sim::Time lifetime = exp_delay(options_.mean_lifetime);
  vm->depart_event =
      engine().schedule(lifetime, [this, vm_id] { depart(vm_id); });
  if (rng_.chance(options_.pause_probability)) {
    // Pause somewhere in the first half of the expected life, so the VM
    // usually gets to resume before its departure fires.
    const sim::Time at = sim::Time::seconds(
        rng_.uniform(0.1, 0.5) * options_.mean_lifetime.to_seconds());
    vm->pause_event =
        engine().schedule(at, [this, vm_id] { pause_vm(vm_id); });
  }
  live_.push_back(std::move(vm));
}

ChurnDriver::LiveVm* ChurnDriver::find_live(int vm_id) {
  for (auto& vm : live_) {
    if (vm->vm_id == vm_id) return vm.get();
  }
  return nullptr;
}

void ChurnDriver::depart(int vm_id) {
  LiveVm* vm = find_live(vm_id);
  if (vm == nullptr) return;
  vm->pause_event.cancel();
  vm->resume_event.cancel();
  // The control plane stops the guest cleanly (threads retire instead of
  // re-arming), then tears the domain down.
  cluster_->destroy(vm_id);
  ++departures_;
  live_.erase(std::find_if(live_.begin(), live_.end(),
                           [&](const auto& p) { return p.get() == vm; }));
}

void ChurnDriver::pause_vm(int vm_id) {
  LiveVm* vm = find_live(vm_id);
  if (vm == nullptr || vm->paused) return;
  // The control plane refuses to pause a VM mid-migration; in that case
  // the pause is simply dropped (the VM keeps running).
  if (!cluster_->pause(vm_id)) return;
  vm->paused = true;
  ++pauses_;
  vm->resume_event = engine().schedule(exp_delay(options_.mean_pause),
                                       [this, vm_id] { resume_vm(vm_id); });
}

void ChurnDriver::resume_vm(int vm_id) {
  LiveVm* vm = find_live(vm_id);
  if (vm == nullptr || !vm->paused) return;
  if (!cluster_->resume(vm_id)) return;
  vm->paused = false;
  ++resumes_;
}

void ChurnDriver::drain() {
  draining_ = true;
  arrival_event_.cancel();
  while (!live_.empty()) depart(live_.back()->vm_id);
}

}  // namespace vprobe::runner
