#include "runner/run_plan.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "stats/aggregate.hpp"

namespace vprobe::runner {

// ---------------------------------------------------------------- RunSpec ----

RunSpec RunSpec::spec(const RunConfig& config, std::string_view app) {
  return {config, "spec:" + std::string(app),
          [app = std::string(app)](const RunConfig& c) { return run_spec_single(c, app); }};
}

RunSpec RunSpec::npb(const RunConfig& config, std::string_view app) {
  return {config, "npb:" + std::string(app),
          [app = std::string(app)](const RunConfig& c) { return run_npb_single(c, app); }};
}

RunSpec RunSpec::memcached(const RunConfig& config, int concurrency,
                           std::uint64_t total_ops) {
  return {config, "memcached:c" + std::to_string(concurrency),
          [=](const RunConfig& c) { return run_memcached_single(c, concurrency, total_ops); }};
}

RunSpec RunSpec::redis(const RunConfig& config, int connections,
                       std::uint64_t total_requests) {
  return {config, "redis:p" + std::to_string(connections),
          [=](const RunConfig& c) { return run_redis_single(c, connections, total_requests); }};
}

RunSpec RunSpec::overhead(const RunConfig& config, int num_vms) {
  return {config, "overhead:" + std::to_string(num_vms) + "vms",
          [=](const RunConfig& c) { return run_overhead_single(c, num_vms); }};
}

RunSpec RunSpec::with_sched(SchedKind kind) const {
  RunSpec s = *this;
  s.config.sched = kind;
  return s;
}

// ---------------------------------------------------------------- RunPlan ----

std::size_t RunPlan::add(RunSpec spec) {
  jobs_.push_back(std::move(spec));
  return jobs_.size() - 1;
}

std::size_t RunPlan::add_sweep(std::span<const SchedKind> kinds,
                               const RunSpec& proto) {
  const std::size_t first = jobs_.size();
  for (SchedKind kind : kinds) jobs_.push_back(proto.with_sched(kind));
  return first;
}

// ------------------------------------------------------- ParallelExecutor ----

int ParallelExecutor::resolved_jobs() const {
  if (options_.jobs > 0) return options_.jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<RunResult> ParallelExecutor::run(const RunPlan& plan) const {
  // Expand jobs into single-seed units.  Units are the parallel grain;
  // repeats of one job run concurrently just like distinct jobs do.
  struct Unit {
    std::size_t job;
    int rep;
  };
  std::vector<Unit> units;
  for (std::size_t j = 0; j < plan.size(); ++j) {
    const int reps = std::max(1, plan.job(j).config.repeats);
    for (int r = 0; r < reps; ++r) units.push_back({j, r});
  }

  std::vector<stats::RunMetrics> unit_metrics(units.size());
  std::vector<std::string> unit_errors(units.size());

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;
  const auto t0 = std::chrono::steady_clock::now();

  auto report_progress = [&] {
    if (!options_.progress) return;
    const std::size_t d = done.load(std::memory_order_relaxed);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double eta =
        d > 0 ? elapsed / static_cast<double>(d) *
                    static_cast<double>(units.size() - d)
              : 0.0;
    std::lock_guard<std::mutex> lock(progress_mu);
    std::fprintf(stderr,
                 "\r[%zu/%zu runs] elapsed %.1fs  eta %.1fs   ", d,
                 units.size(), elapsed, eta);
    if (d == units.size()) std::fputc('\n', stderr);
    std::fflush(stderr);
  };

  auto worker = [&] {
    for (;;) {
      const std::size_t u = next.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) return;
      const Unit& unit = units[u];
      const RunSpec& job = plan.job(unit.job);
      RunConfig cfg = job.config;
      cfg.seed = job.config.seed + static_cast<std::uint64_t>(unit.rep);
      cfg.repeats = 1;
      try {
        unit_metrics[u] = job.fn(cfg);
      } catch (const std::exception& e) {
        unit_errors[u] = e.what();
      } catch (...) {
        unit_errors[u] = "unknown error";
      }
      done.fetch_add(1, std::memory_order_relaxed);
      report_progress();
    }
  };

  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(resolved_jobs()), units.size()));
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  // Fold repeats in seed order — after the barrier, so the fold order (and
  // therefore every floating-point sum) is independent of worker count.
  std::vector<RunResult> results(plan.size());
  std::size_t u = 0;
  for (std::size_t j = 0; j < plan.size(); ++j) {
    const int reps = std::max(1, plan.job(j).config.repeats);
    RunResult& res = results[j];
    stats::MetricsAccumulator acc;
    for (int r = 0; r < reps; ++r, ++u) {
      if (!unit_errors[u].empty()) {
        if (res.error.empty()) {
          res.error = plan.job(j).label + " (seed " +
                      std::to_string(plan.job(j).config.seed +
                                     static_cast<std::uint64_t>(r)) +
                      "): " + unit_errors[u];
        }
        continue;
      }
      acc.add(unit_metrics[u]);
    }
    if (res.error.empty()) res.metrics = acc.mean();
  }
  return results;
}

std::vector<stats::RunMetrics> execute_plan(const RunPlan& plan,
                                            ExecutorOptions options) {
  const auto results = ParallelExecutor(options).run(plan);
  std::vector<stats::RunMetrics> metrics;
  metrics.reserve(results.size());
  for (const auto& r : results) {
    if (!r.ok()) throw std::runtime_error("run plan job failed: " + r.error);
    metrics.push_back(r.metrics);
  }
  return metrics;
}

}  // namespace vprobe::runner
