// Declarative run plans and the parallel executor.
//
// A RunSpec describes one experiment job — a RunConfig plus the closure
// that runs one simulation of it — without running anything.  A RunPlan is an
// ordered list of jobs (typically a workload × scheduler grid).  The
// ParallelExecutor runs a plan on a pool of worker threads and returns
// results keyed by job index, so output never depends on completion order.
//
// Determinism contract: every simulation is single-threaded and fully
// determined by its RunConfig, and the executor (a) expands each job into
// its `repeats` single-seed runs, (b) collects per-run results into
// pre-indexed slots, and (c) folds the repeats in seed order after the
// parallel phase.  Executing the same plan with jobs=1 and jobs=N therefore
// yields bit-identical RunMetrics.  A job that throws reports its error in
// its own slot and never poisons sibling jobs.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "runner/experiment.hpp"
#include "stats/metrics.hpp"

namespace vprobe::runner {

/// One job: the RunConfig it starts from, a display label, and the body
/// that runs one simulation.  The factories below bind an experiment
/// family's parameters into `fn`; bench-specific setups (solo calibration,
/// misplaced-memory ablation...) brace-initialise a RunSpec with their own
/// `fn`.  `fn` gets the per-seed config as an argument, so a sweep's
/// with_sched() clone retargets it.
struct RunSpec {
  RunConfig config;
  std::string label;  ///< progress & error display, e.g. "spec:soplex"
  /// Runs exactly one simulation with the executor's per-seed copy of
  /// `config` (repeats = 1: repeat expansion is the executor's job).  Must
  /// be safe to call concurrently with *other* jobs, i.e. build its own
  /// hypervisor/engine and share nothing mutable.
  std::function<stats::RunMetrics(const RunConfig&)> fn;

  // -- Factories over the Section V families (run_*_single) ----------------
  static RunSpec spec(const RunConfig& config, std::string_view app);
  static RunSpec npb(const RunConfig& config, std::string_view app);
  static RunSpec memcached(const RunConfig& config, int concurrency,
                           std::uint64_t total_ops = 400'000);
  static RunSpec redis(const RunConfig& config, int connections,
                       std::uint64_t total_requests = 400'000);
  static RunSpec overhead(const RunConfig& config, int num_vms);

  /// Copy of this spec targeting another scheduler (for sweeps).
  RunSpec with_sched(SchedKind kind) const;
};

/// An ordered list of jobs.  Order defines result order.
class RunPlan {
 public:
  /// Append a job; returns its index.
  std::size_t add(RunSpec spec);

  /// Append one copy of `proto` per scheduler in `kinds` (in order);
  /// returns the index of the first.
  std::size_t add_sweep(std::span<const SchedKind> kinds, const RunSpec& proto);

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  const RunSpec& job(std::size_t i) const { return jobs_.at(i); }
  std::span<const RunSpec> jobs() const { return jobs_; }

 private:
  std::vector<RunSpec> jobs_;
};

/// Outcome of one job: averaged metrics, or the error that ended it.
struct RunResult {
  stats::RunMetrics metrics;
  std::string error;  ///< empty on success
  bool ok() const { return error.empty(); }
};

struct ExecutorOptions {
  /// Worker threads; <= 0 means one per hardware thread.
  int jobs = 1;
  /// Emit a single-line [done/total + ETA] progress ticker to stderr.
  bool progress = false;
};

/// Thread-pool executor over RunPlans.  Stateless between run() calls.
class ParallelExecutor {
 public:
  explicit ParallelExecutor(ExecutorOptions options = {})
      : options_(options) {}

  /// Execute every job; result i corresponds to plan.job(i).
  std::vector<RunResult> run(const RunPlan& plan) const;

  /// `jobs` resolved against the host (for display).
  int resolved_jobs() const;

 private:
  ExecutorOptions options_;
};

/// Execute and unwrap: throws std::runtime_error on the first failed job
/// (message carries the job label), otherwise returns metrics in job order.
std::vector<stats::RunMetrics> execute_plan(const RunPlan& plan,
                                            ExecutorOptions options = {});

}  // namespace vprobe::runner
