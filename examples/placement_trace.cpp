// Watch a scheduler place VCPUs: attach the tracer, run the paper's
// standard scenario, and print each app VCPU's node residency plus the
// PCPU migration matrix — the view that makes "did the partitioner hold
// VM1 on node 0?" a one-glance answer.
//
//   $ ./placement_trace                # vProbe (default)
//   $ ./placement_trace --sched=credit --scale=0.2
#include <cstdio>

#include "runner/cli.hpp"
#include "runner/scenario.hpp"
#include "trace/analysis.hpp"
#include "trace/tracer.hpp"
#include "workload/hungry.hpp"
#include "workload/spec.hpp"

using namespace vprobe;

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({"scale", "sched", "seed"});
  if (runner::maybe_print_help(
          cli, "VCPU node residency and PCPU migrations under one scheduler",
          "This example reads only --scale (default 0.15), --sched (default\n"
          "vprobe) and --seed (default 1)."))
    return 0;
  const double scale = cli.get_double("scale", 0.15);
  const std::string sched_name = cli.get("sched", "vprobe");
  const auto parsed = runner::sched_from_name(sched_name);
  if (!parsed) {
    std::fprintf(stderr, "unknown --sched '%s' (valid: %s)\n",
                 sched_name.c_str(), runner::valid_sched_names().c_str());
    return 2;  // same exit convention as the bench binaries
  }
  const runner::SchedKind kind = *parsed;

  auto hv = runner::make_hypervisor(kind, cli.get_u64("seed", 1));
  trace::Tracer tracer(1 << 20);
  hv->set_tracer(&tracer);

  runner::StandardVms vms = runner::create_standard_vms(*hv);
  std::vector<std::unique_ptr<wl::SpecApp>> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(std::make_unique<wl::SpecApp>(
        *hv, *vms.vm1, vms.vm1->vcpu(static_cast<std::size_t>(i)), "milc",
        scale, "milc#" + std::to_string(i)));
  }
  wl::HungryLoops hungry(*hv, *vms.vm3, runner::domain_vcpus(*vms.vm3));

  hv->start();
  hungry.start();
  for (auto& a : apps) a->start();
  runner::run_until(
      *hv,
      [&] {
        for (auto& a : apps) {
          if (!a->finished()) return false;
        }
        return true;
      },
      sim::Time::sec(3600));

  std::printf("scheduler: %s, %llu trace events (%llu dropped)\n\n",
              runner::to_string(kind),
              static_cast<unsigned long long>(tracer.total_recorded()),
              static_cast<unsigned long long>(tracer.dropped()));

  const auto events = tracer.snapshot();
  const trace::NodeResidency residency(events, hv->topology(), hv->now());
  std::printf(
      "VM1's app VCPUs (VM1 spans both nodes; instances' data alternates):\n");
  std::printf("  vcpu        data-node  node0(s)  node1(s)  on-data-node\n");
  for (int i = 0; i < 4; ++i) {
    const hv::Vcpu& v = vms.vm1->vcpu(static_cast<std::size_t>(i));
    const numa::NodeId data_node =
        v.node_affinity == numa::kInvalidNode ? 0 : v.node_affinity;
    std::printf("  %-10s %9d %9.3f %9.3f   %5.1f%%\n", v.name().c_str(),
                data_node, residency.seconds_on(v.id(), 0),
                residency.seconds_on(v.id(), 1),
                residency.fraction_on(v.id(), data_node) * 100.0);
  }

  const trace::MigrationMatrix matrix(events, hv->topology().num_pcpus());
  std::printf("\nmigrations: %llu total, %llu cross-node\n",
              static_cast<unsigned long long>(matrix.total()),
              static_cast<unsigned long long>(matrix.cross_node(hv->topology())));
  std::printf("\nlast trace events:\n");
  tracer.dump(stdout, 10);
  return 0;
}
