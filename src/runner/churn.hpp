// Declarative VM churn: a seeded arrival/departure process layered on top
// of a running cluster, so scenarios and benches can express *dynamic*
// consolidation workloads (VMs booting, pausing, resuming and being torn
// down mid-experiment) instead of the static Section V-A sets.  A single
// machine churns as a cluster of one.
//
// The driver owns its own Rng stream (never a hypervisor's), so adding
// churn to a scenario does not perturb the random decisions of a static
// run at the same seed — the golden traces of static scenarios stay
// byte-identical.  All decisions are reproducible from ChurnOptions::seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace vprobe::cluster {
class Cluster;
}  // namespace vprobe::cluster

namespace vprobe::runner {

struct ChurnOptions {
  std::uint64_t seed = 1;
  /// First arrival is drawn from the interarrival distribution after this.
  sim::Time start_after = sim::Time::ms(10);
  /// Mean of the exponential VM interarrival time.
  sim::Time mean_interarrival = sim::Time::ms(60);
  /// Mean of the exponential VM lifetime (arrival -> departure).
  sim::Time mean_lifetime = sim::Time::ms(150);
  /// Each arrival is paused once mid-life with this probability...
  double pause_probability = 0.3;
  /// ...for an exponential hold with this mean.
  sim::Time mean_pause = sim::Time::ms(20);
  /// Stop generating arrivals after this many (0 = unbounded).
  int max_arrivals = 0;
  /// Arrivals while this many churn VMs are live are skipped (recorded in
  /// skipped()), like a cloud scheduler refusing placement.
  int max_live = 8;
  int min_vcpus = 1;
  int max_vcpus = 4;
  std::int64_t min_mem_bytes = 256ll << 20;
  std::int64_t max_mem_bytes = 1ll << 30;
  /// Fraction of arrivals that run guest-OS housekeeping ticks (light,
  /// mostly-blocked) instead of hungry loops (pure CPU burners).
  double ticker_fraction = 0.5;
};

/// Drives admit/pause/resume/destroy against the cluster control plane
/// from seeded arrival, lifetime and pause processes.  The admission filter
/// and placement pick each arrival's host (a refusal counts as skipped()),
/// and churn guests are rebindable, so the balancer may live-migrate them.
/// Construct after the cluster (so it is destroyed first) and call start()
/// once; the driver cancels its pending events on destruction.
class ChurnDriver {
 public:
  ChurnDriver(cluster::Cluster& cluster, ChurnOptions options);
  ~ChurnDriver();
  ChurnDriver(const ChurnDriver&) = delete;
  ChurnDriver& operator=(const ChurnDriver&) = delete;

  /// Arm the arrival process.  The cluster should already be start()ed.
  void start();

  /// Tear down every churn VM still live and stop generating arrivals.
  /// Safe to call repeatedly; the destructor does NOT call this (a bench
  /// may want the final live set to survive until the cluster dies).
  void drain();

  const ChurnOptions& options() const { return options_; }
  int live() const { return static_cast<int>(live_.size()); }
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t departures() const { return departures_; }
  std::uint64_t pauses() const { return pauses_; }
  std::uint64_t resumes() const { return resumes_; }
  std::uint64_t skipped() const { return skipped_; }

 private:
  /// One churn VM currently alive, tracked by its cluster-wide VM id —
  /// never by Domain* or position: domain lists shift under churn, and a
  /// migration moves the domain to another host.
  struct LiveVm {
    int vm_id = 0;
    sim::EventHandle depart_event;
    sim::EventHandle pause_event;
    sim::EventHandle resume_event;
    bool paused = false;
  };

  void schedule_next_arrival();
  void on_arrival();
  void depart(int vm_id);
  void pause_vm(int vm_id);
  void resume_vm(int vm_id);
  LiveVm* find_live(int vm_id);
  sim::Time exp_delay(sim::Time mean);
  sim::Engine& engine();

  cluster::Cluster* cluster_;
  ChurnOptions options_;
  /// The coarsest chunk size in the fleet: drawn sizes round to it, so a
  /// churn VM is chunk-aligned on every candidate host.
  std::int64_t chunk_bytes_ = 1;
  sim::Rng rng_;
  std::vector<std::unique_ptr<LiveVm>> live_;
  sim::EventHandle arrival_event_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t departures_ = 0;
  std::uint64_t pauses_ = 0;
  std::uint64_t resumes_ = 0;
  std::uint64_t skipped_ = 0;
  int next_churn_index_ = 0;
  bool draining_ = false;
};

}  // namespace vprobe::runner
