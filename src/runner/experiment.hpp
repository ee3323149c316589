// One function per experiment family in Section V.  Each builds a fresh
// hypervisor + VM set, runs the workload to completion (or the horizon),
// and returns the metrics the corresponding figure plots.  Normalisation
// against the Credit baseline happens in the bench binaries.
#pragma once

#include <string_view>

#include "runner/scenario.hpp"
#include "stats/metrics.hpp"

namespace vprobe::runner {

struct RunConfig {
  SchedKind sched = SchedKind::kCredit;
  std::uint64_t seed = 1;
  /// Average every experiment over this many seeds (seed, seed+1, ...).
  /// Placement under churny schedulers is seed-sensitive; the paper
  /// likewise averages repeated runs.
  int repeats = 1;
  /// Shrinks application instruction budgets; 1.0 = paper-scale runs.
  double instr_scale = 0.25;
  sim::Time sampling_period = sim::Time::sec(1);
  sim::Time horizon = sim::Time::sec(3600);
  bool dynamic_bounds = false;
  /// Bit-identical reuse in the hypervisor's segment path (the slice clamp
  /// and decay memos); --no-rate-cache clears it.
  bool rate_cache = true;
  /// Use Figure 1's VM memory sizes (VM1/VM2 8 GB, VM3 2 GB) instead of the
  /// Section V-A defaults (15/5/1 GB).
  bool fig1_memory_config = false;
  /// Attach the runtime invariant checker (src/check) to every run and
  /// throw if any invariant is violated.
  bool checks = false;
};

/// SPEC CPU2006 workload (Figure 4): VM1 and VM2 run identical instance
/// sets of `app` (4+4, except mcf: 6+2), VM3 runs hungry loops.  `app` may
/// be "mix" — one instance each of soplex/libquantum/mcf/milc per VM.
stats::RunMetrics run_spec(const RunConfig& config, std::string_view app);

/// Single-seed variants: one simulation, config.repeats ignored.  These are
/// the units the RunPlan executor (run_plan.hpp) schedules; the plain
/// entry points below average them over config.repeats seeds.
stats::RunMetrics run_spec_single(const RunConfig& config, std::string_view app);
stats::RunMetrics run_npb_single(const RunConfig& config, std::string_view app);
stats::RunMetrics run_memcached_single(const RunConfig& config, int concurrency,
                                       std::uint64_t total_ops);
stats::RunMetrics run_redis_single(const RunConfig& config, int connections,
                                   std::uint64_t total_requests);
stats::RunMetrics run_overhead_single(const RunConfig& config, int num_vms);

/// NPB workload (Figure 5): a 4-threaded `app` in VM1 and VM2 each.
stats::RunMetrics run_npb(const RunConfig& config, std::string_view app);

/// Memcached (Figure 6): 8-port servers in VM1 and VM2, memslap-style
/// closed-loop clients at `concurrency` outstanding calls each; measures
/// VM1's server.
stats::RunMetrics run_memcached(const RunConfig& config, int concurrency,
                                std::uint64_t total_ops = 400'000);

/// Redis (Figure 7): 4 servers in VM1, 4 redis-benchmark tools in VM2,
/// `connections` parallel connections per tool.
stats::RunMetrics run_redis(const RunConfig& config, int connections,
                            std::uint64_t total_requests = 400'000);

/// Solo calibration run (Figure 3): one 1-VCPU VM runs `app` alone with
/// node-local memory; returns LLC miss rate and RPTI via RunMetrics
/// (total/remote fields reused: see bench/fig3_bounds).
struct SoloMetrics {
  double llc_miss_rate = 0.0;  ///< misses / references
  double rpti = 0.0;           ///< references per 1000 instructions
  double runtime_s = 0.0;
};
SoloMetrics run_solo(const RunConfig& config, std::string_view app);

/// Overhead experiment (Table III): `num_vms` VMs (4 GB, 2 VCPUs, 2 soplex
/// instances each) under the full vProbe scheduler; returns the fraction of
/// "overhead time" (PMU collection + partitioning) in total busy time.
stats::RunMetrics run_overhead(const RunConfig& config, int num_vms);

}  // namespace vprobe::runner
