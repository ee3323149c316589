// Define your own application model and run it under vProbe.
//
// The library's built-in workloads are all built from AppProfile +
// ComputeThread; this example shows the same path for a custom app — an
// "in-memory analytics" engine with a large scan working set — plus a
// custom VcpuWork implementation for full control of burst/blocking
// behaviour (a periodic checkpointing loop).
//
//   $ ./custom_workload [--scale=1.0]
#include <cstdio>

#include "runner/cli.hpp"
#include "runner/scenario.hpp"
#include "workload/app.hpp"

using namespace vprobe;

namespace {

constexpr std::int64_t kMB = 1024ll * 1024;
constexpr std::int64_t kGB = 1024ll * kMB;

/// A fully custom guest thread: compute 50 ms worth of work, then "write a
/// checkpoint" (block 5 ms), forever.  Shows the raw VcpuWork contract.
class CheckpointingLoop final : public hv::VcpuWork {
 public:
  hv::BurstPlan next_burst(sim::Time) override {
    hv::BurstPlan plan;
    plan.instructions = 120e6;  // ~50 ms at ~2.4 GIPS
    plan.profile.rpti = 6.0;
    plan.profile.solo_miss = 0.1;
    plan.profile.miss_sensitivity = 0.3;
    plan.profile.working_set_bytes = 3.0 * 1024 * 1024;
    return plan;
  }

  hv::Outcome advance(double instructions, sim::Time) override {
    executed_ += instructions;
    since_checkpoint_ += instructions;
    if (since_checkpoint_ >= 120e6) {
      since_checkpoint_ = 0.0;
      ++checkpoints_;
      return {hv::OutcomeKind::kBlockTimed, sim::Time::ms(5)};
    }
    return {hv::OutcomeKind::kContinue};
  }

  int checkpoints() const { return checkpoints_; }
  double executed() const { return executed_; }

 private:
  double executed_ = 0.0;
  double since_checkpoint_ = 0.0;
  int checkpoints_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({"scale"});
  if (runner::maybe_print_help(
          cli, "A custom application model and VcpuWork under vProbe",
          "This example reads only --scale (default 1.0)."))
    return 0;
  const double scale = cli.get_double("scale", 1.0);

  // 1. Describe the custom application's memory behaviour.  This is all the
  //    simulator — and therefore the scheduler — can see of it.
  const wl::AppProfile analytics{
      .name = "analytics",
      .rpti = 21.0,                     // heavy LLC traffic: LLC-thrashing
      .solo_miss = 0.45,
      .miss_sensitivity = 0.25,
      .working_set_bytes = 18.0 * 1024 * 1024,
      .footprint_bytes = 2 * kGB,
      .default_instructions = 6e9 * scale,
      .phases = 3,                      // the scan window moves over the data
  };

  auto hv = runner::make_hypervisor(runner::SchedKind::kVprobe, /*seed=*/3);
  hv::Domain& vm = hv->create_domain("analytics-vm", 6 * kGB, 2,
                                     numa::PlacementPolicy::kFillFirst, 0);

  // 2. Analytics engine on VCPU 0, built from ComputeThread.
  wl::ComputeThread::Init init;
  init.profile = &analytics;
  init.memory = &vm.memory();
  init.region = vm.memory().alloc_region(analytics.footprint_bytes);
  init.total_instructions = analytics.default_instructions;
  init.phases = analytics.phases;
  init.name = "analytics";
  wl::ComputeThread engine(init);
  engine.bind(*hv, vm.vcpu(0));
  sim::Time finish;
  engine.add_on_finish([&](sim::Time t) { finish = t; });

  // 3. Checkpointing sidecar on VCPU 1, from the raw VcpuWork interface.
  CheckpointingLoop checkpointer;
  hv->bind_work(vm.vcpu(1), checkpointer);

  // 4. Run until the analytics job completes.
  hv->start();
  hv->wake(vm.vcpu(0));
  hv->wake(vm.vcpu(1));
  runner::run_until(*hv, [&] { return engine.finished(); }, sim::Time::sec(3600));

  // 5. What did the scheduler learn about our app?
  const hv::Vcpu& v = vm.vcpu(0);
  std::printf("analytics finished in %.3f s (%d phases traversed)\n",
              finish.to_seconds(), analytics.phases);
  std::printf("scheduler's view of VCPU 0: type=%s, LLC pressure=%.1f,"
              " node affinity=%d\n",
              hv::to_string(v.vcpu_type), v.llc_pressure, v.node_affinity);
  std::printf("checkpointer: %d checkpoints, %.0f Minstr executed\n",
              checkpointer.checkpoints(), checkpointer.executed() / 1e6);
  const pmu::CounterSet c = v.pmu.cumulative();
  std::printf("PMU: %.0f Minstr, %.1f%% LLC miss rate, %.1f%% remote"
              " accesses\n",
              c.instr_retired / 1e6, 100.0 * c.llc_misses / c.llc_refs,
              100.0 * c.remote_accesses / c.total_mem_accesses());
  return 0;
}
