// Quickstart: the 60-second tour of the vProbe library.
//
// Builds the paper's two-socket NUMA machine, boots one VM running a
// memory-intensive SPEC-like application next to a CPU-hog VM, runs it once
// under Xen's Credit scheduler and once under vProbe, and prints what
// changed — runtime, remote-access ratio, and migrations.
//
//   $ ./quickstart [--scale=0.05]
#include <cstdio>

#include "runner/cli.hpp"
#include "runner/scenario.hpp"
#include "workload/hungry.hpp"
#include "workload/spec.hpp"

using namespace vprobe;

namespace {

constexpr std::int64_t kGB = 1024ll * 1024 * 1024;

struct Outcome {
  double runtime_s;
  double remote_ratio;
  std::uint64_t cross_node_migrations;
};

Outcome run_once(runner::SchedKind kind, double scale) {
  // 1. A hypervisor on the paper's Xeon E5620 (2 nodes x 4 cores).
  auto hv = runner::make_hypervisor(kind, /*seed=*/42);

  // 2. VM1 holds the measured app; VM3-style spinners create interference.
  hv::Domain& vm1 = hv->create_domain("VM1", 8 * kGB, 4,
                                      numa::PlacementPolicy::kFillFirst, 0);
  hv::Domain& vm3 = hv->create_domain("VM3", 1 * kGB, 8,
                                      numa::PlacementPolicy::kFillFirst, 1);

  // 3. Four milc instances (LLC-thrashing) and eight hungry loops.
  std::vector<std::unique_ptr<wl::SpecApp>> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(std::make_unique<wl::SpecApp>(
        *hv, vm1, vm1.vcpu(static_cast<std::size_t>(i)), "milc", scale,
        "milc#" + std::to_string(i)));
  }
  wl::HungryLoops hungry(*hv, vm3, runner::domain_vcpus(vm3));

  // 4. Go.
  hv->start();
  for (auto& a : apps) a->start();
  hungry.start();
  runner::run_until(
      *hv,
      [&] {
        for (auto& a : apps) {
          if (!a->finished()) return false;
        }
        return true;
      },
      sim::Time::sec(3600));

  // 5. Harvest results from the domain's virtualised PMU counters.
  double runtime = 0.0;
  for (auto& a : apps) runtime += a->runtime().to_seconds();
  const pmu::CounterSet counters = vm1.total_counters();
  return Outcome{runtime / 4.0,
                 counters.remote_accesses / counters.total_mem_accesses(),
                 hv->total_cross_node_migrations()};
}

}  // namespace

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({"scale"});
  if (runner::maybe_print_help(
          cli, "Quickstart: one SPEC VM next to a CPU hog, Credit vs vProbe",
          "This example reads only --scale (default 0.05)."))
    return 0;
  const double scale = cli.get_double("scale", 0.05);

  std::printf("%s\n\n", numa::MachineConfig::xeon_e5620().summary().c_str());

  const Outcome credit = run_once(runner::SchedKind::kCredit, scale);
  const Outcome vprobe = run_once(runner::SchedKind::kVprobe, scale);

  std::printf("                         %12s %12s\n", "Credit", "vProbe");
  std::printf("avg milc runtime (s)     %12.3f %12.3f\n", credit.runtime_s,
              vprobe.runtime_s);
  std::printf("remote access ratio (%%)  %12.1f %12.1f\n",
              credit.remote_ratio * 100.0, vprobe.remote_ratio * 100.0);
  std::printf("cross-node migrations    %12llu %12llu\n",
              static_cast<unsigned long long>(credit.cross_node_migrations),
              static_cast<unsigned long long>(vprobe.cross_node_migrations));
  std::printf("\nvProbe speedup: %.1f%%\n",
              (1.0 - vprobe.runtime_s / credit.runtime_s) * 100.0);
  return 0;
}
