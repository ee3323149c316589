#include "perf/cost_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace vprobe::perf {

CostModel::Rates CostModel::compute_rates(const SliceProfile& profile,
                                          numa::NodeId run_node,
                                          double extra_cold_miss,
                                          sim::Time now) const {
  Rates r;
  const double ghz = cfg_.clock_ghz;
  r.refs_per_instr = profile.rpti / 1000.0;

  // Contended + cold miss rate on this node's shared LLC.
  const auto& llc = state_.llc(run_node);
  r.miss_rate = std::clamp(
      llc.miss_rate(profile.solo_miss, profile.miss_sensitivity) + extra_cold_miss,
      0.0, 1.0);

  // Where do misses go?  Use the burst's placement; unplaced data is local.
  double placed = 0.0;
  const int nodes = state_.num_nodes();
  for (int n = 0; n < nodes && static_cast<std::size_t>(n) < profile.node_fractions.size(); ++n) {
    const double f = profile.node_fractions[static_cast<std::size_t>(n)];
    r.node_frac[static_cast<std::size_t>(n)] = f;
    placed += f;
  }
  if (placed == 1.0) {
    // Pre-normalised placement (the common frac_copy case): nothing to do.
  } else if (placed <= 1e-12) {
    r.node_frac[static_cast<std::size_t>(run_node)] = 1.0;
  } else if (std::abs(placed - 1.0) > 1e-9) {
    for (int n = 0; n < nodes; ++n) r.node_frac[static_cast<std::size_t>(n)] /= placed;
  }

  // Average DRAM latency over home nodes, with IMC queueing and QPI hops.
  // The run-node-local term is hoisted out of the loop (a local access never
  // pays an interconnect hop); accumulation stays in node order so the sum
  // rounds identically to the all-in-loop formulation.
  const double local_lat =
      cfg_.local_mem_latency_ns * state_.imc(run_node).latency_factor(now);
  double avg_dram_ns = 0.0;
  for (int n = 0; n < nodes; ++n) {
    const double f = r.node_frac[static_cast<std::size_t>(n)];
    if (f <= 0.0) continue;
    if (n == run_node) {
      avg_dram_ns += f * local_lat;
      continue;
    }
    double lat = cfg_.local_mem_latency_ns * state_.imc(n).latency_factor(now);
    lat += state_.interconnect().remote_extra_ns(run_node, n, now);
    avg_dram_ns += f * lat;
  }

  const double hits_per_instr = r.refs_per_instr * (1.0 - r.miss_rate);
  const double misses_per_instr = r.refs_per_instr * r.miss_rate;
  r.ns_per_instr = cfg_.base_cpi / ghz +
                   hits_per_instr * (cfg_.llc_hit_cycles / ghz) +
                   misses_per_instr * avg_dram_ns;
  return r;
}

double CostModel::ns_per_instr(const SliceProfile& profile, numa::NodeId run_node,
                               double extra_cold_miss, sim::Time now) {
  ++stats_.misses;
  return compute_rates(profile, run_node, extra_cold_miss, now).ns_per_instr;
}

ExecResult CostModel::run(const SliceProfile& profile, numa::NodeId run_node,
                          double extra_cold_miss, double max_instructions,
                          sim::Time max_time, sim::Time now) {
  if (max_instructions <= 0.0 || max_time <= sim::Time::zero()) return {};
  ++stats_.misses;
  const Rates r = compute_rates(profile, run_node, extra_cold_miss, now);

  ExecResult out;
  out.ns_per_instr = r.ns_per_instr;

  const double budget_ns = static_cast<double>(max_time.nanos());
  const double instr_by_time = budget_ns / r.ns_per_instr;
  out.instructions = std::min(max_instructions, instr_by_time);
  out.elapsed = sim::Time::ns(static_cast<std::int64_t>(
      std::ceil(out.instructions * r.ns_per_instr)));
  out.elapsed = std::min(out.elapsed, max_time);

  // PMU counter deltas.
  out.counters.instr_retired = out.instructions;
  out.counters.llc_refs = out.instructions * r.refs_per_instr;
  out.counters.llc_misses = out.counters.llc_refs * r.miss_rate;
  const double line = static_cast<double>(cfg_.cache_line_bytes);
  const sim::Time end = now + out.elapsed;
  for (int n = 0; n < state_.num_nodes(); ++n) {
    const double f = r.node_frac[static_cast<std::size_t>(n)];
    if (f <= 0.0) continue;
    const double accesses = out.counters.llc_misses * f;
    out.counters.mem_accesses[static_cast<std::size_t>(n)] = accesses;
    const double bytes = accesses * line;
    state_.imc(n).record_traffic(bytes, end, out.elapsed);
    if (n != run_node) {
      out.counters.remote_accesses += accesses;
      state_.interconnect().record_traffic(run_node, n, bytes, end, out.elapsed);
    }
  }
  return out;
}

}  // namespace vprobe::perf
