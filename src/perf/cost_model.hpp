// The execution cost model: turns "VCPU v runs workload w on node n for up
// to T wall time" into retired instructions, elapsed time, and PMU counter
// deltas — the simulator's substitute for real silicon.
//
// Cost per instruction (in nanoseconds):
//
//   nspi = base_cpi/clock
//        + hits_per_instr   * llc_hit_cycles/clock
//        + misses_per_instr * avg_dram_latency_ns
//
// where misses split across home nodes according to the workload's page
// placement, each paying the home node's IMC queueing factor, and remote
// ones additionally the interconnect hop (utilisation-dependent).  All four
// performance-degrading factors from Section II-A of the paper appear here:
// remote latency, memory-controller contention, interconnect contention and
// LLC contention (via MachineState's shared-cache model plus cold-cache
// boost after migration).
//
// No memo: every prediction and settlement evaluates compute_rates() in
// full.  A per-PCPU memo keyed on contention version counters used to sit
// here; it hit only 14–22% of lookups, because every other PCPU's traffic
// moves the fabric counters, and its key compares and stores cost more than
// the evaluations it saved.  docs/PERF.md has the measurement that retired
// it.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>

#include "numa/machine_config.hpp"
#include "perf/contention.hpp"
#include "pmu/counters.hpp"
#include "sim/time.hpp"

namespace vprobe::perf {

/// Memory-behaviour parameters of one execution burst.
struct SliceProfile {
  double rpti = 0.0;              ///< LLC references per 1000 instructions
  double solo_miss = 0.0;         ///< LLC miss rate with no co-runners
  double miss_sensitivity = 0.0;  ///< miss-rate growth per unit LLC overcommit
  double working_set_bytes = 0.0; ///< shared-cache demand
  /// Fraction of this burst's data living on each node (sums to 1, or all
  /// zero when nothing is placed yet — then data is assumed node-local).
  std::span<const double> node_fractions;
};

/// What came out of executing (part of) a burst.
struct ExecResult {
  double instructions = 0.0;       ///< instructions actually retired
  sim::Time elapsed;               ///< wall time consumed
  double ns_per_instr = 0.0;       ///< the rate snapshot used
  pmu::CounterSet counters;        ///< PMU deltas for this execution
};

class CostModel {
 public:
  CostModel(const numa::MachineConfig& cfg, MachineState& state)
      : cfg_(cfg), state_(state) {
    // Rates::node_frac holds pmu::kMaxNodes entries.
    assert(state_.num_nodes() <= pmu::kMaxNodes &&
           "CostModel supports at most pmu::kMaxNodes NUMA nodes");
  }

  /// Nanoseconds per instruction for `profile` running on `run_node` right
  /// now with the given cache warmth (in [0,1]; extra_cold_miss is added to
  /// the contended miss rate).  Reads the contention state; only the
  /// evaluation counter in cache_stats() changes.
  double ns_per_instr(const SliceProfile& profile, numa::NodeId run_node,
                      double extra_cold_miss, sim::Time now);

  /// Execute up to `max_instructions` of `profile` on `run_node` within a
  /// wall budget of `max_time`.  Returns what retired; deposits the traffic
  /// into the IMC/interconnect trackers.
  ExecResult run(const SliceProfile& profile, numa::NodeId run_node,
                 double extra_cold_miss, double max_instructions,
                 sim::Time max_time, sim::Time now);

  /// Hard floor on ns_per_instr for ANY profile/contention state: every
  /// cost term beyond base_cpi/clock is non-negative.  Callers use it to
  /// prove a burst cannot finish inside a window without evaluating rates.
  double min_ns_per_instr() const { return cfg_.base_cpi / cfg_.clock_ghz; }

  /// Rate evaluations made by ns_per_instr() and run().  With no memo every
  /// evaluation is a miss: `hits` stays 0, and `misses` counts the lookups
  /// the perf suite reports as `perf.rate_lookups`.
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  const CacheStats& cache_stats() const { return stats_; }

  const numa::MachineConfig& config() const { return cfg_; }

 private:
  struct Rates {
    double refs_per_instr = 0.0;
    double miss_rate = 0.0;
    double ns_per_instr = 0.0;
    /// Miss fraction landing on each node (normalised copy of placement).
    std::array<double, pmu::kMaxNodes> node_frac{};
  };
  Rates compute_rates(const SliceProfile& profile, numa::NodeId run_node,
                      double extra_cold_miss, sim::Time now) const;

  const numa::MachineConfig& cfg_;
  MachineState& state_;
  CacheStats stats_;
};

}  // namespace vprobe::perf
