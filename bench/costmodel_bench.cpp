// Cost-model hot-path micro-benchmark: the per-segment predict+settle rate
// evaluations, for the current cost model versus an older baseline
// (exp-always RateTracker, unordered_map LLC occupancy), which is embedded
// below as the unit-level oracle so the comparison is always available from
// one binary.
//
// Two scenarios replaying the cost model's real call shapes:
//
//   segment_rate     the hypervisor's segment loop: occupant churn + memory
//                    traffic every segment, prediction at segment start and
//                    settlement at the same `now`.
//   placement_scan   a scheduler scoring candidate placements: repeated
//                    ns_per_instr reads against an unchanging machine, time
//                    advancing between reads.
//
// Every variant (legacy, current with its decay memos, current with them
// off as under --no-rate-cache) folds each result into a bit-pattern
// digest; the digests must be identical — every fast path may only ever
// return the exact doubles the legacy recomputation produces.
//
// Usage:
//   costmodel_bench            full run, JSON on stdout (BENCH_costmodel.json)
//   costmodel_bench --smoke    quick CI gate: asserts digest equality across
//                              all three variants and that the evaluation
//                              counts match the call count; exit 1 on
//                              violation
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "numa/machine_config.hpp"
#include "perf/contention.hpp"
#include "perf/cost_model.hpp"
#include "pmu/counters.hpp"
#include "runner/cli.hpp"
#include "sim/time.hpp"

namespace {

using vprobe::sim::Time;
using vprobe::numa::MachineConfig;
using vprobe::numa::NodeId;

// ----------------------------------------------------- legacy baseline ----
// Shape of the contention stack + cost model before any hot-path work: the
// rate tracker pays std::exp on every non-zero-dt read (even when the rate
// is zero), LLC occupancy lives in an unordered_map, and every prediction
// and settlement runs the full compute_rates().  No decay memo, no idle
// fast paths.

namespace legacy {

class RateTracker {
 public:
  explicit RateTracker(Time time_constant = Time::ms(10))
      : tau_s_(time_constant.to_seconds()) {}

  void record(double amount, Time now, Time duration = Time::zero()) {
    (void)duration;
    decay_to(now);
    rate_ += amount / tau_s_;
  }

  double rate(Time now) const {
    const double dt = (now - last_).to_seconds();
    if (dt <= 0.0) return rate_;
    return rate_ * std::exp(-dt / tau_s_);
  }

 private:
  void decay_to(Time now) {
    const double dt = (now - last_).to_seconds();
    if (dt > 0.0) {
      rate_ *= std::exp(-dt / tau_s_);
      last_ = now;
    }
  }

  double tau_s_;
  double rate_ = 0.0;
  Time last_ = Time::zero();
};

class LlcModel {
 public:
  explicit LlcModel(std::int64_t capacity_bytes)
      : capacity_(static_cast<double>(capacity_bytes)) {}

  void set_demand(std::uint64_t occupant, double demand_bytes) {
    auto [it, inserted] = demand_.try_emplace(occupant, demand_bytes);
    if (inserted) {
      total_demand_ += demand_bytes;
    } else {
      total_demand_ += demand_bytes - it->second;
      it->second = demand_bytes;
    }
    if (total_demand_ < 0.0) total_demand_ = 0.0;
  }

  void remove(std::uint64_t occupant) {
    auto it = demand_.find(occupant);
    if (it == demand_.end()) return;
    total_demand_ -= it->second;
    if (total_demand_ < 0.0) total_demand_ = 0.0;
    demand_.erase(it);
  }

  double overcommit() const {
    if (total_demand_ <= capacity_ || total_demand_ <= 0.0) return 0.0;
    return (total_demand_ - capacity_) / total_demand_;
  }

  double miss_rate(double solo_miss, double sensitivity) const {
    const double m = solo_miss + sensitivity * overcommit();
    return std::clamp(m, 0.0, 1.0);
  }

 private:
  double capacity_;
  double total_demand_ = 0.0;
  std::unordered_map<std::uint64_t, double> demand_;
};

class MemController {
 public:
  explicit MemController(double bandwidth_bytes_per_s)
      : bandwidth_(bandwidth_bytes_per_s) {}

  void record_traffic(double bytes, Time now, Time duration) {
    tracker_.record(bytes, now, duration);
  }
  double utilization(Time now) const { return tracker_.rate(now) / bandwidth_; }
  double latency_factor(Time now) const {
    const double rho = std::min(utilization(now), rho_max_);
    const double factor = 1.0 / (1.0 - rho);
    return std::min(factor, max_factor_);
  }

 private:
  double bandwidth_;
  double rho_max_ = 0.95;
  double max_factor_ = 8.0;
  RateTracker tracker_;
};

class Interconnect {
 public:
  explicit Interconnect(const MachineConfig& cfg)
      : num_nodes_(cfg.num_nodes),
        link_bw_(cfg.qpi_link_bandwidth_bytes_per_s() * cfg.qpi_links),
        base_extra_ns_(cfg.remote_extra_latency_ns),
        queueing_slope_ns_(cfg.qpi_queueing_slope_ns),
        links_(static_cast<std::size_t>(num_nodes_) *
               static_cast<std::size_t>(num_nodes_)) {}

  void record_traffic(NodeId from, NodeId to, double bytes, Time now,
                      Time duration) {
    if (from == to) return;
    links_[link_index(from, to)].record(bytes, now, duration);
  }
  double utilization(NodeId from, NodeId to, Time now) const {
    if (from == to) return 0.0;
    return links_[link_index(from, to)].rate(now) / link_bw_;
  }
  double remote_extra_ns(NodeId from, NodeId to, Time now) const {
    if (from == to) return 0.0;
    return base_extra_ns_ + queueing_slope_ns_ * utilization(from, to, now);
  }

 private:
  std::size_t link_index(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(num_nodes_) +
           static_cast<std::size_t>(to);
  }

  int num_nodes_;
  double link_bw_;
  double base_extra_ns_;
  double queueing_slope_ns_;
  std::vector<RateTracker> links_;
};

struct MachineState {
  explicit MachineState(const MachineConfig& cfg) : interconnect(cfg) {
    for (int n = 0; n < cfg.num_nodes; ++n) {
      llcs.emplace_back(cfg.llc_bytes);
      imcs.emplace_back(cfg.imc_bandwidth_bytes_per_s);
    }
  }
  int num_nodes() const { return static_cast<int>(llcs.size()); }
  void occupant_in(NodeId node, std::uint64_t occupant, double demand) {
    llcs[static_cast<std::size_t>(node)].set_demand(occupant, demand);
  }
  void occupant_out(NodeId node, std::uint64_t occupant) {
    llcs[static_cast<std::size_t>(node)].remove(occupant);
  }

  std::vector<LlcModel> llcs;
  std::vector<MemController> imcs;
  Interconnect interconnect;
};

class CostModel {
 public:
  CostModel(const MachineConfig& cfg, MachineState& state)
      : cfg_(cfg), state_(state) {}

  double ns_per_instr(const vprobe::perf::SliceProfile& profile,
                      NodeId run_node, double extra_cold_miss, Time now) const {
    return compute_rates(profile, run_node, extra_cold_miss, now).ns_per_instr;
  }

  vprobe::perf::ExecResult run(const vprobe::perf::SliceProfile& profile,
                               NodeId run_node, double extra_cold_miss,
                               double max_instructions, Time max_time,
                               Time now) {
    vprobe::perf::ExecResult out;
    if (max_instructions <= 0.0 || max_time <= Time::zero()) return out;

    const Rates r = compute_rates(profile, run_node, extra_cold_miss, now);
    out.ns_per_instr = r.ns_per_instr;

    const double budget_ns = static_cast<double>(max_time.nanos());
    const double instr_by_time = budget_ns / r.ns_per_instr;
    out.instructions = std::min(max_instructions, instr_by_time);
    out.elapsed = Time::ns(static_cast<std::int64_t>(
        std::ceil(out.instructions * r.ns_per_instr)));
    out.elapsed = std::min(out.elapsed, max_time);

    out.counters.instr_retired = out.instructions;
    out.counters.llc_refs = out.instructions * r.refs_per_instr;
    out.counters.llc_misses = out.counters.llc_refs * r.miss_rate;
    const double line = static_cast<double>(cfg_.cache_line_bytes);
    const Time end = now + out.elapsed;
    for (int n = 0; n < state_.num_nodes(); ++n) {
      const double f = r.node_frac[static_cast<std::size_t>(n)];
      if (f <= 0.0) continue;
      const double accesses = out.counters.llc_misses * f;
      out.counters.mem_accesses[static_cast<std::size_t>(n)] = accesses;
      const double bytes = accesses * line;
      state_.imcs[static_cast<std::size_t>(n)].record_traffic(bytes, end,
                                                              out.elapsed);
      if (n != run_node) {
        out.counters.remote_accesses += accesses;
        state_.interconnect.record_traffic(run_node, n, bytes, end,
                                           out.elapsed);
      }
    }
    return out;
  }

 private:
  struct Rates {
    double refs_per_instr = 0.0;
    double miss_rate = 0.0;
    double ns_per_instr = 0.0;
    std::array<double, vprobe::pmu::kMaxNodes> node_frac{};
  };

  Rates compute_rates(const vprobe::perf::SliceProfile& profile,
                      NodeId run_node, double extra_cold_miss,
                      Time now) const {
    Rates r;
    const double ghz = cfg_.clock_ghz;
    r.refs_per_instr = profile.rpti / 1000.0;

    const auto& llc = state_.llcs[static_cast<std::size_t>(run_node)];
    r.miss_rate = std::clamp(
        llc.miss_rate(profile.solo_miss, profile.miss_sensitivity) +
            extra_cold_miss,
        0.0, 1.0);

    double placed = 0.0;
    const int nodes = state_.num_nodes();
    for (int n = 0;
         n < nodes && static_cast<std::size_t>(n) < profile.node_fractions.size();
         ++n) {
      const double f = profile.node_fractions[static_cast<std::size_t>(n)];
      r.node_frac[static_cast<std::size_t>(n)] = f;
      placed += f;
    }
    if (placed <= 1e-12) {
      r.node_frac[static_cast<std::size_t>(run_node)] = 1.0;
    } else if (std::abs(placed - 1.0) > 1e-9) {
      for (int n = 0; n < nodes; ++n)
        r.node_frac[static_cast<std::size_t>(n)] /= placed;
    }

    double avg_dram_ns = 0.0;
    for (int n = 0; n < nodes; ++n) {
      const double f = r.node_frac[static_cast<std::size_t>(n)];
      if (f <= 0.0) continue;
      double lat = cfg_.local_mem_latency_ns *
                   state_.imcs[static_cast<std::size_t>(n)].latency_factor(now);
      lat += state_.interconnect.remote_extra_ns(run_node, n, now);
      avg_dram_ns += f * lat;
    }

    const double hits_per_instr = r.refs_per_instr * (1.0 - r.miss_rate);
    const double misses_per_instr = r.refs_per_instr * r.miss_rate;
    r.ns_per_instr = cfg_.base_cpi / ghz +
                     hits_per_instr * (cfg_.llc_hit_cycles / ghz) +
                     misses_per_instr * avg_dram_ns;
    return r;
  }

  const MachineConfig& cfg_;
  MachineState& state_;
};

}  // namespace legacy

// ------------------------------------------------------------- harness ----

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Bit-pattern digest (FNV-1a over the raw bytes): equality means every
/// folded double is bit-identical, not merely approximately equal.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void fold(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void fold(std::int64_t v) { fold(static_cast<double>(v)); }
};

/// One simulated VCPU's per-burst inputs, fixed for the whole run.
struct Guest {
  vprobe::perf::SliceProfile profile;
  std::array<double, 2> fractions;
  double extra_cold_miss = 0.0;
  double instructions = 0.0;
};

/// The SPEC-mix-like guest set: a thrasher, a cache-fitter (sensitive), a
/// friendly one, and a remote-heavy one, cycled over the PCPUs.
std::vector<Guest> make_guests(int count) {
  const double kRpti[] = {42.0, 18.0, 1.5, 30.0};
  const double kSolo[] = {0.55, 0.08, 0.02, 0.35};
  const double kSens[] = {0.05, 0.60, 0.01, 0.20};
  const double kWsMb[] = {14.0, 6.0, 0.5, 9.0};
  const double kLocalFrac[] = {0.85, 1.0, 1.0, 0.35};
  std::vector<Guest> guests(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Guest& g = guests[static_cast<std::size_t>(i)];
    const int k = i % 4;
    g.fractions = {kLocalFrac[k], 1.0 - kLocalFrac[k]};
    g.profile.rpti = kRpti[k];
    g.profile.solo_miss = kSolo[k];
    g.profile.miss_sensitivity = kSens[k];
    g.profile.working_set_bytes = kWsMb[k] * 1024.0 * 1024.0;
    g.profile.node_fractions = std::span<const double>(g.fractions);
    g.extra_cold_miss = (k == 3) ? 0.04 : 0.0;
    g.instructions = 2.0e6 + 1.0e5 * k;
  }
  return guests;
}

struct BenchResult {
  double calls_per_sec = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t evaluations = 0;  ///< current variants: CostModel's count
};

/// Replay the hypervisor's / scheduler's call sequence against any model
/// exposing ns_per_instr / run.  `settle` drives the segment
/// loop (predict, settle at the same `now`, deposit traffic, churn
/// occupants); without it the loop is a pure placement scan — prediction
/// reads only, against a machine nothing mutates.
template <typename StateT, typename ModelT>
BenchResult drive(const MachineConfig& cfg, StateT& state, ModelT& model,
                  int steps, bool settle) {
  const int pcpus = cfg.total_pcpus();
  auto guests = make_guests(pcpus);

  if (!settle) {
    // Scan scenario: fixed occupancy, registered once up front.
    for (int p = 0; p < pcpus; ++p) {
      state.occupant_in(static_cast<NodeId>(p / cfg.cores_per_node),
                        static_cast<std::uint64_t>(p),
                        guests[static_cast<std::size_t>(p)].profile.working_set_bytes);
    }
  }

  Digest d;
  Time t = Time::zero();
  const Time slice = Time::ms(30);
  const double t0 = now_sec();
  for (int s = 0; s < steps; ++s) {
    const int p = s % pcpus;
    const NodeId node = static_cast<NodeId>(p / cfg.cores_per_node);
    const Guest& g = guests[static_cast<std::size_t>(p)];
    if (settle) {
      state.occupant_in(node, static_cast<std::uint64_t>(p),
                        g.profile.working_set_bytes);
    }
    // Prediction at segment start...
    const double nspi =
        model.ns_per_instr(g.profile, node, g.extra_cold_miss, t);
    d.fold(nspi);
    if (settle) {
      // ...then settlement at the same `now`, exactly as the hypervisor
      // does.
      const auto out = model.run(g.profile, node, g.extra_cold_miss,
                                 g.instructions, slice, t);
      d.fold(out.instructions);
      d.fold(out.ns_per_instr);
      d.fold(out.elapsed.nanos());
      d.fold(out.counters.llc_misses);
      d.fold(out.counters.remote_accesses);
      state.occupant_out(node, static_cast<std::uint64_t>(p));
      // Advance past the deposit timestamp so the next read pays the decay.
      t = t + out.elapsed + Time::us(7);
    } else {
      t = t + Time::us(10);
    }
  }
  const double t1 = now_sec();

  BenchResult r;
  r.calls_per_sec = static_cast<double>(settle ? 2 * steps : steps) / (t1 - t0);
  r.digest = d.h;
  return r;
}

BenchResult drive_legacy(const MachineConfig& cfg, int steps, bool settle) {
  legacy::MachineState state(cfg);
  legacy::CostModel model(cfg, state);
  return drive(cfg, state, model, steps, settle);
}

/// The production CostModel; `decay_memo` false is what --no-rate-cache
/// leaves of it.
BenchResult drive_current(const MachineConfig& cfg, int steps, bool settle,
                          bool decay_memo) {
  vprobe::perf::MachineState state(cfg);
  state.set_decay_caches(decay_memo);
  vprobe::perf::CostModel model(cfg, state);
  BenchResult r = drive(cfg, state, model, steps, settle);
  r.evaluations = model.cache_stats().misses;
  return r;
}

struct Scenario {
  const char* name;
  BenchResult legacy_r;
  BenchResult cached;
  BenchResult uncached;
  bool digests_match = false;
  bool counts_match = false;
  double speedup() const {
    return cached.calls_per_sec / legacy_r.calls_per_sec;
  }
};

Scenario run_scenario(const char* name, bool settle, const MachineConfig& cfg,
                      int steps) {
  Scenario sc;
  sc.name = name;
  sc.legacy_r = drive_legacy(cfg, steps, settle);
  sc.cached = drive_current(cfg, steps, settle, true);
  sc.uncached = drive_current(cfg, steps, settle, false);
  sc.digests_match = sc.legacy_r.digest == sc.cached.digest &&
                     sc.cached.digest == sc.uncached.digest;
  // Every ns_per_instr and every run performs exactly one evaluation — the
  // count perfsuite reports as perf.rate_lookups.
  const std::uint64_t want =
      static_cast<std::uint64_t>(settle ? 2 * steps : steps);
  sc.counts_match =
      sc.cached.evaluations == want && sc.uncached.evaluations == want;
  return sc;
}

void print_scenario(const Scenario& sc, bool first) {
  std::printf("%s    \"%s\": {\n", first ? "" : ",\n", sc.name);
  std::printf("      \"legacy_calls_per_sec\": %.0f,\n",
              sc.legacy_r.calls_per_sec);
  std::printf("      \"cached_calls_per_sec\": %.0f,\n",
              sc.cached.calls_per_sec);
  std::printf("      \"uncached_calls_per_sec\": %.0f,\n",
              sc.uncached.calls_per_sec);
  std::printf("      \"speedup_vs_legacy\": %.2f,\n", sc.speedup());
  std::printf("      \"digests_match\": %s,\n",
              sc.digests_match ? "true" : "false");
  std::printf("      \"lookup_counts_match\": %s\n",
              sc.counts_match ? "true" : "false");
  std::printf("    }");
}

}  // namespace

int main(int argc, char** argv) {
  vprobe::runner::Cli cli(argc, argv);
  cli.require_known({"smoke"});
  const bool smoke = cli.has("smoke");
  const int steps = smoke ? 100'000 : 600'000;
  const MachineConfig cfg = MachineConfig::xeon_e5620();

  const Scenario seg = run_scenario("segment_rate", true, cfg, steps);
  const Scenario scan = run_scenario("placement_scan", false, cfg, steps);

  bool ok = true;
  ok &= seg.digests_match && scan.digests_match;
  ok &= seg.counts_match && scan.counts_match;

  if (smoke) {
    std::printf(
        "costmodel_bench --smoke: segment_rate %.2fx, placement_scan %.2fx; "
        "digests %s; evaluation counts %s\n",
        seg.speedup(), scan.speedup(),
        seg.digests_match && scan.digests_match ? "match" : "MISMATCH",
        seg.counts_match && scan.counts_match ? "match" : "MISMATCH");
    return ok ? 0 : 1;
  }

  // The headline perf gate only applies to the full run: CI machines are too
  // noisy for a timing assertion in --smoke, but the recorded benchmark must
  // clear it.
  ok &= seg.speedup() >= 1.5;

  std::printf("{\n");
  std::printf("  \"benchmark\": \"per-segment cost-model rate evaluations, current model vs legacy baseline (embedded)\",\n");
  std::printf("  \"config\": {\"steps\": %d, \"pcpus\": %d, \"nodes\": %d},\n",
              steps, cfg.total_pcpus(), cfg.num_nodes);
  std::printf("  \"results\": {\n");
  print_scenario(seg, true);
  print_scenario(scan, false);
  std::printf("\n  },\n");
  std::printf("  \"gates\": {\"segment_rate_speedup_min\": 1.5},\n");
  std::printf("  \"correctness\": \"%s\"\n",
              ok ? "bit-identical-across-variants" : "VIOLATION");
  std::printf("}\n");
  return ok ? 0 : 1;
}
