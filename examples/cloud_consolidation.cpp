// Cloud-consolidation scenario: the situation the paper's introduction
// motivates.  A NUMA server consolidates heterogeneous tenants — a database
// cache (memcached), a batch-analytics job (NPB lu), and a best-effort
// CPU-scavenging tenant — and the operator wants to know what switching the
// hypervisor's scheduler to vProbe buys each tenant.
//
//   $ ./cloud_consolidation [--scale=0.05] [--ops=60000]
#include <cstdio>

#include "runner/cli.hpp"
#include "runner/scenario.hpp"
#include "stats/table.hpp"
#include "workload/hungry.hpp"
#include "workload/memcached.hpp"
#include "workload/npb.hpp"

using namespace vprobe;

namespace {

constexpr std::int64_t kGB = 1024ll * 1024 * 1024;

struct TenantReport {
  double cache_runtime_s;      // memcached tenant: time to drain its ops
  double cache_throughput;     // ops/s
  double batch_runtime_s;      // analytics tenant: lu completion time
  double remote_ratio;         // machine-wide remote-access share
};

TenantReport run(runner::SchedKind kind, double scale, std::uint64_t ops) {
  auto hv = runner::make_hypervisor(kind, /*seed=*/7);

  // Tenant 1: latency-sensitive cache, 4 worker ports.
  hv::Domain& cache_vm = hv->create_domain("cache", 6 * kGB, 4,
                                           numa::PlacementPolicy::kFillFirst, 0);
  // Tenant 2: batch analytics, 4 threads.
  hv::Domain& batch_vm = hv->create_domain("batch", 6 * kGB, 4,
                                           numa::PlacementPolicy::kFillFirst, 0);
  // Tenant 3: best-effort scavenger.
  hv::Domain& spot_vm = hv->create_domain("spot", 1 * kGB, 6,
                                          numa::PlacementPolicy::kFillFirst, 1);

  auto cache_vcpus = runner::domain_vcpus(cache_vm);
  wl::RequestServer cache(*hv, cache_vm,
                          wl::memcached_server_config("cache", 4), cache_vcpus);
  wl::MemslapClient::Config ccfg;
  ccfg.concurrency = 48;
  ccfg.total_ops = ops;
  wl::MemslapClient client(*hv, ccfg, {&cache});

  wl::NpbApp::Config ncfg;
  ncfg.profile = "lu";
  ncfg.instr_scale = scale;
  auto batch_vcpus = runner::domain_vcpus(batch_vm);
  wl::NpbApp batch(*hv, batch_vm, ncfg, batch_vcpus);

  wl::HungryLoops spot(*hv, spot_vm, runner::domain_vcpus(spot_vm));

  hv->start();
  client.start();
  batch.start();
  spot.start();

  runner::run_until(
      *hv, [&] { return client.finished() && batch.finished(); },
      sim::Time::sec(3600));

  pmu::CounterSet machine;
  for (const hv::Vcpu* v : hv->all_vcpus()) machine += v->pmu.cumulative();

  return TenantReport{client.runtime().to_seconds(),
                      client.throughput_ops_per_s(),
                      batch.runtime().to_seconds(),
                      machine.remote_accesses / machine.total_mem_accesses()};
}

}  // namespace

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  cli.require_known({"scale", "ops"});
  if (runner::maybe_print_help(
          cli, "Consolidated tenants on one NUMA server, Credit vs vProbe",
          "This example reads only --scale (default 0.05) and\n"
          "  --ops N          memcached operations per client (default 60000)"))
    return 0;
  const double scale = cli.get_double("scale", 0.05);
  const auto ops = cli.get_u64("ops", 60'000);

  std::printf("Consolidated tenants: cache (memcached x4), batch (lu x4),"
              " spot (6 hungry loops)\n%s\n\n",
              numa::MachineConfig::xeon_e5620().summary().c_str());

  const TenantReport credit = run(runner::SchedKind::kCredit, scale, ops);
  const TenantReport vprobe = run(runner::SchedKind::kVprobe, scale, ops);

  stats::Table table({"tenant metric", "Credit", "vProbe", "improvement (%)"});
  auto improvement = [](double worse, double better) {
    return (1.0 - better / worse) * 100.0;
  };
  table.add_row({"cache: ops drain time (s)",
                 stats::fmt(credit.cache_runtime_s, "%.3f"),
                 stats::fmt(vprobe.cache_runtime_s, "%.3f"),
                 stats::fmt(improvement(credit.cache_runtime_s,
                                        vprobe.cache_runtime_s), "%.1f")});
  table.add_row({"cache: throughput (ops/s)",
                 stats::fmt(credit.cache_throughput, "%.0f"),
                 stats::fmt(vprobe.cache_throughput, "%.0f"),
                 stats::fmt(-improvement(credit.cache_throughput,
                                         vprobe.cache_throughput), "%.1f")});
  table.add_row({"batch: lu runtime (s)",
                 stats::fmt(credit.batch_runtime_s, "%.3f"),
                 stats::fmt(vprobe.batch_runtime_s, "%.3f"),
                 stats::fmt(improvement(credit.batch_runtime_s,
                                        vprobe.batch_runtime_s), "%.1f")});
  table.add_row({"machine: remote-access ratio (%)",
                 stats::fmt(credit.remote_ratio * 100.0, "%.1f"),
                 stats::fmt(vprobe.remote_ratio * 100.0, "%.1f"), "-"});
  table.print();
  return 0;
}
