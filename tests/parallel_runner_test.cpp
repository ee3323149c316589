// The determinism contract of the parallel executor (docs/RUNNER.md): a
// RunPlan produces bit-identical results regardless of --jobs, failed jobs
// stay in their own slot, and the repeat fold matches the historical
// serial averaging exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "runner/run_plan.hpp"
#include "stats/aggregate.hpp"
#include "stats/json.hpp"

namespace vprobe::runner {
namespace {

RunConfig tiny_config() {
  RunConfig cfg;
  cfg.instr_scale = 0.01;  // seconds-scale sims: the plan below stays fast
  cfg.repeats = 2;
  cfg.seed = 7;
  return cfg;
}

RunPlan mixed_plan() {
  const RunConfig cfg = tiny_config();
  RunPlan plan;
  plan.add(RunSpec::spec(cfg, "soplex"));
  plan.add(RunSpec::spec(cfg, "milc").with_sched(SchedKind::kVprobe));
  plan.add(RunSpec::npb(cfg, "cg"));
  return plan;
}

void expect_identical(const stats::RunMetrics& a, const stats::RunMetrics& b) {
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.app_runtime_s, b.app_runtime_s);
  EXPECT_EQ(a.avg_runtime_s, b.avg_runtime_s);  // bit-identical, not near
  EXPECT_EQ(a.total_mem_accesses, b.total_mem_accesses);
  EXPECT_EQ(a.remote_mem_accesses, b.remote_mem_accesses);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_TRUE(a.latency == b.latency);  // full histogram, not just percentiles
  EXPECT_EQ(a.latency_p50_s(), b.latency_p50_s());
  EXPECT_EQ(a.latency_p99_s(), b.latency_p99_s());
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_EQ(a.overhead_fraction, b.overhead_fraction);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.cross_node_migrations, b.cross_node_migrations);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.completed, b.completed);
}

TEST(ParallelExecutor, SerialAndParallelRunsAreBitIdentical) {
  const RunPlan plan = mixed_plan();
  const auto serial = ParallelExecutor(ExecutorOptions{1}).run(plan);
  const auto parallel = ParallelExecutor(ExecutorOptions{4}).run(plan);

  ASSERT_EQ(serial.size(), plan.size());
  ASSERT_EQ(parallel.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    expect_identical(serial[i].metrics, parallel[i].metrics);
  }
}

TEST(ParallelExecutor, AllSchedulersStayBitIdenticalAcrossJobCounts) {
  // The differential suite's precondition: for every scheduler, running
  // with --jobs N must reproduce --jobs 1 bit for bit, including the
  // two-seed repeat fold.  A scheduler that read shared mutable state (a
  // global RNG, a static cache) would diverge here under thread
  // interleaving.
  RunConfig cfg = tiny_config();
  cfg.repeats = 2;
  RunPlan plan;
  plan.add_sweep(all_schedulers(), RunSpec::spec(cfg, "soplex"));
  ASSERT_EQ(plan.size(), all_schedulers().size());

  const auto serial = ParallelExecutor(ExecutorOptions{1}).run(plan);
  const auto parallel = ParallelExecutor(ExecutorOptions{4}).run(plan);
  ASSERT_EQ(serial.size(), plan.size());
  ASSERT_EQ(parallel.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    expect_identical(serial[i].metrics, parallel[i].metrics);
  }
}

TEST(ParallelExecutor, ThrowingJobDoesNotPoisonSiblings) {
  RunConfig cfg = tiny_config();
  cfg.repeats = 1;
  RunPlan plan;
  plan.add(RunSpec{cfg, "boom", [](const RunConfig&) -> stats::RunMetrics {
    throw std::runtime_error("injected failure");
  }});
  plan.add(RunSpec::spec(cfg, "soplex"));

  const auto results = ParallelExecutor(ExecutorOptions{2}).run(plan);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_NE(results[0].error.find("injected failure"), std::string::npos);
  EXPECT_NE(results[0].error.find("boom"), std::string::npos);
  EXPECT_TRUE(results[1].ok()) << results[1].error;
  EXPECT_TRUE(results[1].metrics.completed);

  // execute_plan() escalates the failure into an exception.
  EXPECT_THROW(execute_plan(plan, ExecutorOptions{2}), std::runtime_error);
}

TEST(ParallelExecutor, RepeatsAreExpandedIntoPerSeedRuns) {
  RunConfig cfg = tiny_config();
  cfg.repeats = 3;
  std::atomic<int> calls{0};
  std::atomic<std::uint64_t> seed_sum{0};
  RunPlan plan;
  plan.add(RunSpec{cfg, "probe", [&](const RunConfig& c) {
    calls.fetch_add(1);
    seed_sum.fetch_add(c.seed);
    EXPECT_EQ(c.repeats, 1);  // expansion happens in the executor
    stats::RunMetrics m;
    m.completed = true;
    return m;
  }});
  const auto results = ParallelExecutor(ExecutorOptions{2}).run(plan);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(seed_sum.load(), cfg.seed + (cfg.seed + 1) + (cfg.seed + 2));
}

TEST(RunPlan, AddSweepPreservesSchedulerOrder) {
  const SchedKind kinds[] = {SchedKind::kCredit, SchedKind::kVprobe,
                             SchedKind::kLb};
  RunPlan plan;
  const std::size_t first = plan.add_sweep(kinds, RunSpec::spec(tiny_config(), "mcf"));
  EXPECT_EQ(first, 0u);
  ASSERT_EQ(plan.size(), 3u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan.job(i).config.sched, kinds[i]);
    EXPECT_EQ(plan.job(i).label, "spec:mcf");
  }
}

// A RunSpec is {config, label, fn}: the factory must own a copy of its
// parameters (the app name below outlives its temporary only if copied,
// which ASan checks) and fn must take the executor's per-seed config as
// its argument rather than a captured copy, or with_sched() would not
// retarget the job.
TEST(RunSpec, FactoryClosureOwnsItsParametersAndTakesTheConfig) {
  RunConfig cfg = tiny_config();
  cfg.repeats = 1;
  RunPlan plan;
  const RunSpec credit = RunSpec::spec(cfg, std::string("soplex"));
  plan.add(credit);
  plan.add(credit.with_sched(SchedKind::kVprobe));
  EXPECT_EQ(plan.job(0).label, "spec:soplex");

  const auto metrics = execute_plan(plan);
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(stats::to_json(metrics[0]), stats::to_json(run_spec_single(cfg, "soplex")));
  RunConfig vprobe = cfg;
  vprobe.sched = SchedKind::kVprobe;
  EXPECT_EQ(stats::to_json(metrics[1]),
            stats::to_json(run_spec_single(vprobe, "soplex")));
  EXPECT_EQ(metrics[1].scheduler, to_string(SchedKind::kVprobe));
}

TEST(MetricsAccumulator, SingleRunPassesThroughUnchanged) {
  stats::RunMetrics m;
  m.avg_runtime_s = 1.0 / 3.0;  // not representable; must not round-trip
  m.migrations = 41;
  m.completed = true;
  stats::MetricsAccumulator acc;
  acc.add(m);
  const stats::RunMetrics out = acc.mean();
  EXPECT_EQ(out.avg_runtime_s, m.avg_runtime_s);
  EXPECT_EQ(out.migrations, 41u);
  EXPECT_TRUE(out.completed);
}

TEST(MetricsAccumulator, MeanMatchesHistoricalAveraging) {
  stats::RunMetrics a, b;
  a.app_runtime_s["x"] = 2.0;
  a.avg_runtime_s = 2.0;
  a.migrations = 10;
  a.completed = true;
  b.app_runtime_s["x"] = 4.0;
  b.avg_runtime_s = 4.0;
  b.migrations = 11;
  b.completed = false;  // one incomplete run taints the average

  stats::MetricsAccumulator acc;
  acc.add(a);
  acc.add(b);
  const stats::RunMetrics out = acc.mean();
  EXPECT_DOUBLE_EQ(out.avg_runtime_s, 3.0);
  EXPECT_DOUBLE_EQ(out.app_runtime_s.at("x"), 3.0);
  EXPECT_EQ(out.migrations, 10u);  // trunc((10 + 11) / 2)
  EXPECT_FALSE(out.completed);
}

}  // namespace
}  // namespace vprobe::runner
