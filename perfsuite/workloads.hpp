// The perf suite's four workloads.  Each one is a list of simulations per
// rep; every simulation can run three ways:
//
//   * run()    — through the public entry point (runner::run_spec_single,
//                runner::run_scenario, or the public cluster::Cluster API
//                driven by runner::run_cluster_until), untraced;
//   * built with horizon 0 (prepare(seed, true)) — the set-up pass: build
//                and tear down only;
//   * traced() — a bench-side replica of the entry point that owns the
//                engine and hosts, installs TimedScheduler on every host,
//                advances in 100 ms simulated slices and records spans.
//
// The replica's output must equal the entry point's for the same seed
// (same_output), so the per-layer numbers describe the program the
// end-to-end metrics measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "stats/metrics.hpp"
#include "timed_scheduler.hpp"

namespace perfsuite {

/// One span of the traced run: workload rep -> simulation -> slice.
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::string name;
  std::int64_t start_ns = 0;  ///< steady clock, relative to the log's epoch
  std::int64_t end_ns = 0;
  std::uint64_t hook_calls = 0;  ///< scheduler hook calls inside the span
  std::int64_t hook_ns = 0;      ///< their self time, clock cost included
};

/// In-memory span store; written out once, when the workload ends.
class SpanLog {
 public:
  SpanLog();
  std::int64_t open(std::string name, std::int64_t parent);
  void close(std::int64_t id, std::uint64_t hook_calls, std::int64_t hook_ns);
  /// One JSON object per line, each tagged with `workload`.
  void write_jsonl(std::ostream& out, const std::string& workload) const;

 private:
  std::int64_t now_ns() const;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Layer counters and timings of one traced simulation (summed per rep).
struct Layers {
  HookStats hooks;
  std::uint64_t events = 0;  ///< Engine::executed(), control + shard engines
  std::uint64_t partition_rounds = 0;
  std::uint64_t partition_moves = 0;
  std::uint64_t rate_hits = 0;
  std::uint64_t rate_misses = 0;
  std::uint64_t arrival_events = 0;
  std::uint64_t arrivals_coalesced = 0;
  std::uint64_t requests = 0;
  vprobe::cluster::SyncStats sync;
  std::uint64_t migrations_completed = 0;
  std::uint64_t precopy_rounds = 0;
  std::uint64_t trace_records = 0;
  std::int64_t run_ns = 0;       ///< host time of the simulated-time slices
  std::vector<double> slice_ms;  ///< host ms per 100 ms simulated slice

  Layers& operator+=(const Layers& other);
};

struct Traced {
  vprobe::stats::RunMetrics metrics;
  Layers layers;
};

/// How a replica's output is compared with its entry point's.
enum class Compare {
  kJson,   ///< output_digest equality
  kFleet,  ///< fleet digest, latency histogram and SLO count
};

struct Sim {
  std::string label;
  std::function<vprobe::stats::RunMetrics()> run;
  std::function<Traced(SpanLog&, std::int64_t parent_span)> traced;
  Compare compare = Compare::kJson;
};

struct Workload {
  const char* name;
  const char* why;
  /// Parse/build the inputs of one rep.  zero_horizon gives the set-up
  /// pass: the same simulations with horizon 0.
  std::function<std::vector<Sim>(std::uint64_t seed, bool zero_horizon)> prepare;
};

/// The measured sizes, or the tiny ones --smoke runs.
std::vector<Workload> make_workloads(bool smoke);

/// For the smoke gate only: two simulations, of which the first ends
/// incomplete; the first must fail once per untraced rep, the second never.
Workload make_cut_short_workload();

/// FNV-1a over stats::to_json with every PDES synchronizer counter zeroed:
/// those count how the run was executed (and pool_* vary with OS thread
/// timing), not what was simulated.
std::uint64_t output_digest(const vprobe::stats::RunMetrics& metrics);

/// Replica output == entry-point output under `how`.
bool same_output(const vprobe::stats::RunMetrics& entry,
                 const vprobe::stats::RunMetrics& replica, Compare how);

/// The simulated normalized vProbe runtime on the SPEC mix (vProbe mean
/// runtime / Credit mean runtime over the rep's seeds), from one paper_mix
/// rep's outputs; 0 when either scheduler is missing.
double normalized_vprobe_mix(const std::vector<vprobe::stats::RunMetrics>& outputs);

}  // namespace perfsuite
