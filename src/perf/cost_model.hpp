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
// Memoization: the hypervisor computes rates twice per segment (prediction
// at segment start, settlement at segment end) with inputs that are almost
// always unchanged.  Each PCPU owns a cache slot keyed on the profile
// fields, run node, cold-miss boost, the raw node fractions, and the
// contention-state version counters; a slot additionally records whether
// the fabric was idle when it was filled, in which case it is valid at any
// `now` (an idle tracker reads 0.0 regardless of time).  Hits return the
// exact Rates the full recomputation would produce — reuse is only ever
// claimed when it is provably bit-identical, never approximate.  See
// docs/PERF.md for the invariants.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

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
    // The memo compares at most pmu::kMaxNodes node fractions (the size of
    // Slot::input_frac and Rates::node_frac); a machine with more nodes
    // would turn that truncated compare into a silent false-hit source.
    assert(state_.num_nodes() <= pmu::kMaxNodes &&
           "CostModel memo supports at most pmu::kMaxNodes NUMA nodes");
  }

  /// Nanoseconds per instruction for `profile` running on `run_node` right
  /// now with the given cache warmth (in [0,1]; extra_cold_miss is added to
  /// the contended miss rate).  Pure read — no state is modified.
  double ns_per_instr(const SliceProfile& profile, numa::NodeId run_node,
                      double extra_cold_miss, sim::Time now) const;

  /// Execute up to `max_instructions` of `profile` on `run_node` within a
  /// wall budget of `max_time`.  Returns what retired; deposits the traffic
  /// into the IMC/interconnect trackers.
  ExecResult run(const SliceProfile& profile, numa::NodeId run_node,
                 double extra_cold_miss, double max_instructions,
                 sim::Time max_time, sim::Time now);

  // -- Memoized variants (hypervisor hot path) --------------------------------

  /// One cache slot per caller context (the hypervisor uses one per PCPU,
  /// so a segment's settlement finds its own start-of-segment snapshot).
  void resize_cache(std::size_t slots) { slots_.assign(slots, Slot{}); }

  /// Master switch (the --no-rate-cache escape hatch).  Off: the *_cached
  /// entry points recompute unconditionally — provably the same numbers.
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }

  double ns_per_instr_cached(std::size_t slot, const SliceProfile& profile,
                             numa::NodeId run_node, double extra_cold_miss,
                             sim::Time now);

  /// Hard floor on ns_per_instr for ANY profile/contention state: every
  /// cost term beyond base_cpi/clock is non-negative.  Callers use it to
  /// prove a burst cannot finish inside a window without evaluating rates.
  double min_ns_per_instr() const { return cfg_.base_cpi / cfg_.clock_ghz; }
  ExecResult run_cached(std::size_t slot, const SliceProfile& profile,
                        numa::NodeId run_node, double extra_cold_miss,
                        double max_instructions, sim::Time max_time,
                        sim::Time now);

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
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

  /// Versioned per-PCPU snapshot of one compute_rates() evaluation.
  struct Slot {
    bool valid = false;
    bool fabric_idle = false;  ///< taken against an idle fabric: any `now` hits
    numa::NodeId run_node = numa::kInvalidNode;
    double rpti = 0.0;
    double solo_miss = 0.0;
    double miss_sensitivity = 0.0;
    double extra_cold_miss = 0.0;
    std::size_t frac_count = 0;
    std::array<double, pmu::kMaxNodes> input_frac{};  ///< raw, as passed in
    sim::Time now;
    std::uint64_t llc_version = 0;
    std::uint64_t fabric_version = 0;
    Rates rates;
  };

  const Rates& rates_cached(std::size_t slot, const SliceProfile& profile,
                            numa::NodeId run_node, double extra_cold_miss,
                            sim::Time now);
  ExecResult finish_run(const Rates& r, numa::NodeId run_node,
                        double max_instructions, sim::Time max_time,
                        sim::Time now);

  const numa::MachineConfig& cfg_;
  MachineState& state_;
  bool cache_enabled_ = true;
  std::vector<Slot> slots_;
  Slot fallback_slot_;  ///< used when a slot index is out of range
  CacheStats stats_;
};

}  // namespace vprobe::perf
