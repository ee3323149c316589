// NPB-style multi-threaded applications with barrier synchronisation.
//
// An NpbApp spawns `threads` worker threads (the paper uses 4), each bound
// to its own VCPU.  Threads execute equal per-iteration instruction counts
// and synchronise at a barrier after every iteration — the last arriver
// releases the others.  The blocking/waking pattern this produces is the
// raw material of the Credit scheduler's gratuitous migrations: a thread
// waking at a barrier release often finds its PCPU taken by a hungry loop
// and gets stolen across the machine.
//
// The profile's footprint is the application's *total* data size, divided
// evenly among the threads (data-parallel decomposition).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "workload/app.hpp"

namespace vprobe::wl {

class NpbApp {
 public:
  /// Instructions per thread per iteration (barrier interval).
  static constexpr double kIterationInstructions = 20e6;
  /// Fraction of accesses to the whole (shared) data set.
  static constexpr double kSharedFraction = 0.4;

  struct Config {
    std::string profile = "lu";
    int threads = 4;
    double instr_scale = 1.0;
    std::string name;  ///< defaults to the profile name
  };

  /// `vcpus` must contain at least `config.threads` entries.
  NpbApp(hv::Hypervisor& hv, hv::Domain& domain, Config config,
         std::span<hv::Vcpu* const> vcpus);

  void start();

  /// Clean shutdown before domain destruction.  Running threads retire at
  /// their next stop point; threads parked at the barrier stay blocked (the
  /// barrier never releases) and are torn down by destroy_domain.  The app
  /// does not count as finished().
  void stop() {
    for (auto& t : threads_) t->stop();
  }

  const std::string& name() const { return name_; }
  bool finished() const { return finished_threads_ == static_cast<int>(threads_.size()); }
  sim::Time start_time() const { return start_time_; }
  sim::Time finish_time() const { return finish_time_; }
  sim::Time runtime() const { return finish_time_ - start_time_; }
  int num_threads() const { return static_cast<int>(threads_.size()); }
  ComputeThread& thread(int i) { return *threads_.at(static_cast<std::size_t>(i)); }

  /// Barrier statistics (for tests and traces).
  std::uint64_t barrier_releases() const { return barrier_releases_; }

 private:
  class Thread : public ComputeThread {
   public:
    Thread(Init init, NpbApp* app) : ComputeThread(std::move(init)), app_(app) {}

   protected:
    hv::Outcome on_burst_end(sim::Time now) override {
      return app_->barrier_arrive(*this, now);
    }

   private:
    NpbApp* app_;
  };

  hv::Outcome barrier_arrive(Thread& thread, sim::Time now);
  void thread_finished(sim::Time now);
  int unfinished_threads() const {
    return static_cast<int>(threads_.size()) - finished_threads_;
  }

  hv::Hypervisor* hv_;
  std::string name_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<hv::Vcpu*> vcpus_;
  int barrier_arrivals_ = 0;
  std::vector<Thread*> barrier_waiters_;
  int finished_threads_ = 0;
  std::uint64_t barrier_releases_ = 0;
  sim::Time start_time_;
  sim::Time finish_time_;
};

}  // namespace vprobe::wl
