// Fleet plumbing: adapters that let the runner drive a cluster::Cluster —
// the rebindable workload factory for the background guests (so the control
// plane can live-migrate them), a per-host scheduler factory over the
// SchedKind registry, and the engine-stepping loop for multi-machine runs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster.hpp"
#include "runner/scenario.hpp"

namespace vprobe::runner {

/// One background guest app: hungry loops (CPU burners) or guest-OS
/// housekeeping ticks on the domain's VCPUs from index `from` on.
struct BackgroundApp {
  bool hungry = true;
  int from = 0;
};

/// Workload factory running `apps` on the domain, rebuilt from scratch
/// against whichever domain incarnation the control plane hands it
/// (admission, or the destination host after a live migration).  start()
/// starts every hungry app, then every ticker; an app whose `from` is past
/// the domain's VCPUs throws invalid_argument.
cluster::WorkloadFactory background_workload(std::vector<BackgroundApp> apps);

/// Hungry loops on every VCPU of the domain.
cluster::WorkloadFactory hungry_workload();

/// Guest-OS housekeeping ticks on every VCPU of the domain.
cluster::WorkloadFactory ticker_workload();

/// Pre-copy dirty-rate estimates for those workloads, from the VM size:
/// CPU burners touch a working set proportional to their memory; tickers
/// dirty a small, size-independent housekeeping set.
double hungry_dirty_rate(std::int64_t mem_bytes);
double ticker_dirty_rate(std::int64_t mem_bytes);

/// Per-host scheduler factory: every host gets its own fresh instance of
/// the same scheduler kind (scheduler state is per-machine).
cluster::SchedulerFactory scheduler_factory(SchedKind kind,
                                            SchedulerOptions options = {});

/// Drive the cluster until `done()` or `horizon`, checking every
/// kPollStep; a null `done` runs straight to the horizon.  Returns true when
/// `done()` became true in time (or on horizon for a null `done`).  Serial
/// and sharded (PDES) fleets run through the same loop via
/// Cluster::run_until.
bool run_cluster_until(cluster::Cluster& cluster,
                       const std::function<bool()>& done, sim::Time horizon);

}  // namespace vprobe::runner
