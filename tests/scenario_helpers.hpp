// A small but representative two-VM scenario shared by the golden-trace,
// differential, and invariant-checker tests.
//
// The mix is deliberately diverse per VCPU — CPU-bound spinners with varying
// memory profiles next to bursty blockers — so every scheduler path gets
// exercised (BOOST wakes, OVER sinking, idle stealing, sampling windows)
// while the whole run still finishes in well under a second of simulated
// time.  Everything is a pure function of (scheduler, seed).
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "runner/fleet.hpp"
#include "runner/scenario.hpp"
#include "test_helpers.hpp"

namespace vprobe::test {

/// A cluster of one: the machine is the fleet's only host, so a churn
/// driver can act on it through the control plane like on any fleet.
struct MiniScenario {
  std::unique_ptr<cluster::Cluster> fleet;
  hv::Hypervisor* hv = nullptr;  ///< &fleet->host(0)
  hv::Domain* vm1 = nullptr;
  hv::Domain* vm2 = nullptr;
  /// One FakeWork per VCPU, bound in (vm1, vm2) × index order.
  std::vector<std::unique_ptr<FakeWork>> works;
};

/// Build (but do not start) the mini scenario: 2 domains × 6 VCPUs on the
/// paper's 8-PCPU machine — oversubscribed 1.5×, so run queues are never
/// trivially empty.  The options overload lets differential tests flip
/// scheduler-independent knobs (e.g. `rate_cache`) on the same scenario.
/// The host's own tracer is detached; tests attach theirs to `hv`.
inline MiniScenario make_mini_scenario(runner::SchedKind kind,
                                       std::uint64_t seed,
                                       const runner::SchedulerOptions& opts) {
  MiniScenario sc;
  cluster::Config ccfg;
  ccfg.seed = seed;  // child_seed(seed, 0) == seed: host 0 runs on `seed`
  ccfg.trace_capacity = 1;
  ccfg.host_template.rate_cache = opts.rate_cache;
  const std::vector<cluster::HostSpec> hosts(1);
  sc.fleet = std::make_unique<cluster::Cluster>(
      ccfg, hosts, runner::scheduler_factory(kind, opts));
  sc.hv = &sc.fleet->host(0);
  sc.hv->set_tracer(nullptr);

  const auto admit = [&](const char* name) {
    cluster::VmSpec vm;
    vm.name = name;
    vm.mem_bytes = 2 * kTestGB;
    vm.vcpus = 6;
    return sc.fleet->domain_of(sc.fleet->admit(std::move(vm)));
  };
  sc.vm1 = admit("VM1");
  sc.vm2 = admit("VM2");

  int i = 0;
  for (hv::Domain* dom : {sc.vm1, sc.vm2}) {
    for (auto* vcpu : domain_vcpus(*dom)) {
      auto work = std::make_unique<FakeWork>();
      if (i % 2 == 0) {
        // CPU hog with a per-index memory personality, so the analyzers see
        // LLC-friendly and LLC-thrashing VCPUs side by side.
        work->total_instructions = 1e18;
        work->rpti = 5.0 + 10.0 * (i % 3);
        work->solo_miss = 0.05 + 0.1 * (i % 3);
        work->sensitivity = 0.5;
        work->working_set = (1 + i % 3) * 4.0 * 1024 * 1024;
        if (i % 4 == 0) work->fractions = {0.5, 0.5};
      } else {
        // Interactive: short bursts, timed sleeps — drives BOOST wakes.
        work->total_instructions = 1e18;
        work->burst = 3e6;
        work->block_for = sim::Time::ms(1);
        work->rpti = 2.0;
        work->solo_miss = 0.02;
      }
      sc.hv->bind_work(*vcpu, *work);
      sc.works.push_back(std::move(work));
      ++i;
    }
  }
  return sc;
}

inline MiniScenario make_mini_scenario(runner::SchedKind kind,
                                       std::uint64_t seed) {
  runner::SchedulerOptions opts;
  opts.sampling_period = sim::Time::ms(50);  // several analyzer windows per run
  return make_mini_scenario(kind, seed, opts);
}

/// Start the scenario and run for `horizon` of simulated time (the works
/// never finish; this is a fixed-window run).
inline void run_mini(MiniScenario& sc,
                     sim::Time horizon = sim::Time::ms(400)) {
  sc.hv->start();
  for (hv::Domain* dom : {sc.vm1, sc.vm2}) {
    for (auto* vcpu : domain_vcpus(*dom)) sc.hv->wake(*vcpu);
  }
  runner::run_until(*sc.hv, [] { return false; }, horizon);
}

}  // namespace vprobe::test
