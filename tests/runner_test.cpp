// Runner-layer tests: CLI parsing, scheduler factory, the paper's standard
// scenario builder, experiment drivers, seed averaging, determinism.
#include <gtest/gtest.h>

#include "core/vprobe_sched.hpp"
#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_file.hpp"

namespace vprobe::runner {
namespace {

// ----------------------------------------------------------------- Cli ----

Cli make_cli(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& a : storage) argv.push_back(a.data());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CliTest, ParsesKeyValueAndFlags) {
  const Cli cli = make_cli({"prog", "--scale=0.5", "--verbose", "soplex"});
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.5);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional().front(), "soplex");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(CliTest, FallbacksWhenAbsent) {
  const Cli cli = make_cli({"prog"});
  EXPECT_EQ(cli.get("name", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_u64("ops", 123u), 123u);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 2.5), 2.5);
}

TEST(CliTest, NumericParsing) {
  const Cli cli = make_cli({"prog", "--n=42", "--ops=5000000000", "--x=1e-3"});
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_EQ(cli.get_u64("ops", 0), 5'000'000'000ull);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 1e-3);
}

// Every documented value key must accept "--key value" as well as
// "--key=value" — a key missing from kValueKeys silently swallows the
// value as "1" and strands the real value as a positional (the --rps bug).
TEST(CliTest, ValueKeysTakeTheNextToken) {
  const Cli cli = make_cli({"prog", "--rps", "5000", "--slo-ms", "2.5",
                            "--hosts-csv", "hosts.csv", "--sim-threads", "4"});
  EXPECT_DOUBLE_EQ(cli.get_double("rps", 0.0), 5000.0);
  EXPECT_DOUBLE_EQ(cli.get_double("slo-ms", 0.0), 2.5);
  EXPECT_EQ(cli.get("hosts-csv", ""), "hosts.csv");
  EXPECT_EQ(cli.get_int("sim-threads", 0), 4);
  EXPECT_TRUE(cli.positional().empty())
      << "a value token leaked into the positionals";
}

// pdes_scaling advertises "--horizon S" and "--max-threads N" (and
// serving_bench "--horizon S"); "--horizon 2" used to set horizon to 1.
TEST(CliTest, BenchSweepKeysTakeTheNextToken) {
  const Cli cli = make_cli({"prog", "--horizon", "2", "--max-threads", "3"});
  EXPECT_DOUBLE_EQ(cli.get_double("horizon", 0.0), 2.0);
  EXPECT_EQ(cli.get_int("max-threads", 0), 3);
  EXPECT_TRUE(cli.positional().empty())
      << "a value token leaked into the positionals";
}

// "--jobs x" used to become 0 (= all cores) and "--seed 12abc" 12.  A
// malformed value now ends the program with exit code 2 and a message that
// names the flag and the value, from whichever binary reads it.
TEST(CliTest, MalformedNumbersAreRejectedNamingTheFlag) {
  const Cli cli = make_cli({"prog", "--jobs", "x", "--seed", "12abc",
                            "--scale=0.5x", "--n=", "--big=99999999999",
                            "--neg=-3", "--huge=1e999", "--nan=nan",
                            "--pad= 4"});
  const auto usage_error = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(cli.get_int("jobs", 1), usage_error,
              "prog: --jobs: expected an integer in int range, got 'x'");
  EXPECT_EXIT(cli.get_u64("seed", 1), usage_error,
              "prog: --seed: expected a non-negative integer, got '12abc'");
  EXPECT_EXIT(cli.get_double("scale", 1.0), usage_error, "--scale: .*'0.5x'");
  EXPECT_EXIT(cli.get_int("n", 0), usage_error, "--n: .*''");
  EXPECT_EXIT(cli.get_int("big", 0), usage_error, "--big: ");  // > INT_MAX
  EXPECT_EXIT(cli.get_u64("neg", 0), usage_error, "--neg: ");
  EXPECT_EXIT(cli.get_double("huge", 0.0), usage_error, "--huge: ");
  EXPECT_EXIT(cli.get_double("nan", 0.0), usage_error, "--nan: ");
  EXPECT_EXIT(cli.get_int("pad", 0), usage_error, "--pad: ");
  // Well-formed values of the same flags still parse; the 64-bit getter
  // takes what the int getter refuses.
  EXPECT_EQ(cli.get_u64("big", 0), 99'999'999'999ull);
  EXPECT_EQ(cli.get_int("neg", 0), -3);
  EXPECT_EQ(cli.get_int("absent", 9), 9);
}

// -------------------------------------------------------------- Factory ----

TEST(Factory, SchedulerNames) {
  for (SchedKind kind : paper_schedulers()) {
    auto sched = make_scheduler(kind);
    EXPECT_STREQ(sched->name(), to_string(kind));
  }
}

TEST(Factory, PaperSchedulersOrderedAsLegend) {
  const auto all = paper_schedulers();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0], SchedKind::kCredit);
  EXPECT_EQ(all[1], SchedKind::kVprobe);
  EXPECT_EQ(all[4], SchedKind::kBrm);
}

TEST(Factory, OptionsPropagateToVprobe) {
  SchedulerOptions opts;
  opts.sampling_period = sim::Time::ms(250);
  opts.dynamic_bounds = true;
  auto sched = make_scheduler(SchedKind::kVprobe, opts);
  auto* vp = dynamic_cast<core::VprobeScheduler*>(sched.get());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->options().sampling_period, sim::Time::ms(250));
  EXPECT_TRUE(vp->options().dynamic_bounds);
}

TEST(Factory, HypervisorUsesPaperMachineByDefault) {
  auto hv = make_hypervisor(SchedKind::kCredit);
  EXPECT_EQ(hv->topology().num_nodes(), 2);
  EXPECT_EQ(hv->topology().num_pcpus(), 8);
}

// ------------------------------------------------------- Standard VMs ----

TEST(StandardVmsTest, PaperLayout) {
  auto hv = make_hypervisor(SchedKind::kCredit);
  StandardVms vms = create_standard_vms(*hv);
  ASSERT_NE(vms.dom0, nullptr);
  EXPECT_EQ(vms.dom0->num_vcpus(), 4u);
  EXPECT_EQ(vms.vm1->num_vcpus(), 8u);
  EXPECT_EQ(vms.vm2->num_vcpus(), 8u);
  EXPECT_EQ(vms.vm3->num_vcpus(), 8u);

  // Dom0's memory sits entirely on node 0 (it boots first).
  const auto dom0_census = vms.dom0->memory().node_census();
  EXPECT_EQ(dom0_census[1], 0);

  // VM1's 15 GB cannot fit the remaining 10 GB of node 0: it spans both
  // nodes ("split into two nodes", Section V-A1).
  const auto vm1_census = vms.vm1->memory().node_census();
  EXPECT_GT(vm1_census[0], 0);
  EXPECT_GT(vm1_census[1], 0);

  // VM2/VM3 land on node 1 (node 0 is exhausted).
  EXPECT_EQ(vms.vm2->memory().node_census()[0], 0);
  EXPECT_EQ(vms.vm3->memory().node_census()[0], 0);
}

TEST(StandardVmsTest, Fig1LayoutKeepsVm1OnNodeZero) {
  auto hv = make_hypervisor(SchedKind::kCredit);
  StandardVms vms = create_standard_vms(*hv, VmSizes{8, 8, 2});
  // Dom0 2 GB + VM1 8 GB = 10 GB < 12 GB: VM1 is entirely node-0 resident.
  const auto census = vms.vm1->memory().node_census();
  EXPECT_EQ(census[1], 0);
}

TEST(StandardVmsTest, Dom0BackendIsRunning) {
  auto hv = make_hypervisor(SchedKind::kCredit);
  StandardVms vms = create_standard_vms(*hv);
  hv->start();
  hv->engine().run_until(sim::Time::ms(500));
  // Dom0's backend burns CPU periodically on its (node-0) VCPUs.
  sim::Time dom0_cpu = sim::Time::zero();
  for (std::size_t i = 0; i < vms.dom0->num_vcpus(); ++i) {
    dom0_cpu += vms.dom0->vcpu(i).cpu_time;
  }
  EXPECT_GT(dom0_cpu, sim::Time::ms(50));
  EXPECT_LT(dom0_cpu, sim::Time::ms(2000));  // bursty, not hogging
}

TEST(StandardVmsTest, RunUntilHonoursHorizonAndPredicate) {
  auto hv = make_hypervisor(SchedKind::kCredit);
  int calls = 0;
  const bool ok = run_until(*hv, [&] { return ++calls >= 3; }, sim::Time::sec(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(hv->now(), kPollStep * 2);  // polled at 0, one step and two

  auto hv2 = make_hypervisor(SchedKind::kCredit);
  const bool timed_out = run_until(*hv2, [] { return false; }, sim::Time::ms(500));
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(hv2->now(), sim::Time::ms(500));
}

// ---------------------------------------------------------- Experiments ----

RunConfig tiny(SchedKind sched) {
  RunConfig cfg;
  cfg.sched = sched;
  cfg.instr_scale = 0.01;
  cfg.horizon = sim::Time::sec(600);
  return cfg;
}

TEST(Experiments, MetadataFilledIn) {
  const auto m = run_spec(tiny(SchedKind::kCredit), "milc");
  EXPECT_EQ(m.scheduler, "Credit");
  EXPECT_EQ(m.workload, "spec:milc");
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.app_runtime_s.size(), 4u);  // four VM1 instances
  EXPECT_GT(m.avg_runtime_s, 0.0);
  EXPECT_GT(m.sim_seconds, 0.0);
}

TEST(Experiments, McfRunsSixPlusTwoInstances) {
  const auto m = run_spec(tiny(SchedKind::kCredit), "mcf");
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.app_runtime_s.size(), 6u);  // six in the measured VM1
}

TEST(Experiments, Fig1ConfigRunsMcfWithFourInstances) {
  RunConfig cfg = tiny(SchedKind::kCredit);
  cfg.fig1_memory_config = true;  // 8 GB VM1 cannot hold six mcf instances
  const auto m = run_spec(cfg, "mcf");
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.app_runtime_s.size(), 4u);
}

TEST(Experiments, DeterministicForFixedSeed) {
  const auto a = run_npb(tiny(SchedKind::kVprobe), "lu");
  const auto b = run_npb(tiny(SchedKind::kVprobe), "lu");
  EXPECT_DOUBLE_EQ(a.avg_runtime_s, b.avg_runtime_s);
  EXPECT_DOUBLE_EQ(a.total_mem_accesses, b.total_mem_accesses);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(Experiments, SeedChangesTheSchedule) {
  RunConfig cfg = tiny(SchedKind::kCredit);
  const auto a = run_spec(cfg, "soplex");
  cfg.seed = 1234;
  const auto b = run_spec(cfg, "soplex");
  EXPECT_NE(a.avg_runtime_s, b.avg_runtime_s);
}

TEST(Experiments, AveragedRepeatsLieWithinSingleSeedEnvelope) {
  RunConfig cfg = tiny(SchedKind::kCredit);
  double lo = 1e300, hi = 0.0;
  for (int s = 1; s <= 3; ++s) {
    cfg.seed = static_cast<std::uint64_t>(s);
    cfg.repeats = 1;
    const double v = run_spec(cfg, "milc").avg_runtime_s;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  cfg.seed = 1;
  cfg.repeats = 3;
  const auto avg = run_spec(cfg, "milc");
  EXPECT_GE(avg.avg_runtime_s, lo - 1e-9);
  EXPECT_LE(avg.avg_runtime_s, hi + 1e-9);
  EXPECT_TRUE(avg.completed);
}

TEST(Experiments, SoloMetricsSaneForAllFigure3Apps) {
  RunConfig cfg = tiny(SchedKind::kCredit);
  for (std::string_view app : wl::figure3_apps()) {
    const auto solo = run_solo(cfg, app);
    EXPECT_GT(solo.runtime_s, 0.0) << app;
    EXPECT_GT(solo.rpti, 0.0) << app;
    EXPECT_GE(solo.llc_miss_rate, 0.0) << app;
    EXPECT_LE(solo.llc_miss_rate, 1.0) << app;
    // Long-run RPTI converges to the profile value despite burst jitter.
    EXPECT_NEAR(solo.rpti, wl::profile(app).rpti,
                wl::profile(app).rpti * 0.05 + 0.05)
        << app;
  }
}

TEST(Experiments, OverheadScalesWithVmCountAndStaysTiny) {
  RunConfig cfg = tiny(SchedKind::kVprobe);
  cfg.instr_scale = 0.05;
  for (int vms = 1; vms <= 4; ++vms) {
    const auto m = run_overhead(cfg, vms);
    EXPECT_TRUE(m.completed) << vms;
    EXPECT_GT(m.overhead_fraction, 0.0) << vms;
    EXPECT_LT(m.overhead_fraction, 1e-3) << vms << " VMs: must be << 0.1%";
  }
}

TEST(Experiments, MemcachedThroughputPositiveAcrossConcurrency) {
  RunConfig cfg = tiny(SchedKind::kCredit);
  for (int c : {16, 64, 112}) {
    const auto m = run_memcached(cfg, c, 20'000);
    EXPECT_TRUE(m.completed) << c;
    EXPECT_GT(m.throughput_rps, 0.0) << c;
  }
}

TEST(Experiments, RedisThroughputFallsWithConnections) {
  RunConfig cfg = tiny(SchedKind::kCredit);
  const auto low = run_redis(cfg, 2000, 60'000);
  const auto high = run_redis(cfg, 10000, 60'000);
  ASSERT_TRUE(low.completed && high.completed);
  EXPECT_GT(low.throughput_rps, high.throughput_rps)
      << "per-connection overhead must reduce throughput (Figure 7a)";
}

// ------------------------------------------------------- Scenario files ----

constexpr const char* kValidScenario = R"(
machine xeon_e5620
scheduler lb
seed 9
scale 0.02
horizon 300
sampling 0.5
vm name=A mem=6G vcpus=4 policy=fill_first alternate=1
vm name=B mem=1G vcpus=4 preferred=1
app vm=A kind=spec profile=milc count=2 measure=1
app vm=A kind=ticks from=2
app vm=B kind=hungry
)";

TEST(ScenarioFile, ParsesEveryDirective) {
  const ScenarioSpec spec = parse_scenario(kValidScenario);
  EXPECT_EQ(spec.machine, "xeon_e5620");
  EXPECT_EQ(spec.sched, SchedKind::kLb);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.scale, 0.02);
  EXPECT_DOUBLE_EQ(spec.sampling_s, 0.5);
  ASSERT_EQ(spec.vms.size(), 2u);
  EXPECT_EQ(spec.vms[0].name, "A");
  EXPECT_EQ(spec.vms[0].mem_bytes, 6ll * 1024 * 1024 * 1024);
  EXPECT_TRUE(spec.vms[0].alternate);
  EXPECT_EQ(spec.vms[1].preferred, 1);
  ASSERT_EQ(spec.apps.size(), 3u);
  EXPECT_EQ(spec.apps[0].kind, "spec");
  EXPECT_EQ(spec.apps[0].count, 2);
  EXPECT_TRUE(spec.apps[0].measure);
  EXPECT_EQ(spec.apps[1].from, 2);
}

TEST(ScenarioFile, RejectsBrokenInput) {
  EXPECT_THROW(parse_scenario(""), std::invalid_argument);
  EXPECT_THROW(parse_scenario("machine pdp11"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("scheduler cfs"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("vm name=A vcpus=2"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("vm name=A mem=1G vcpus=2\n"
                              "app vm=NOPE kind=hungry"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("vm name=A mem=1G vcpus=2\n"
                              "app vm=A kind=spec profile=doom count=1"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("vm name=A mem=1G vcpus=2\n"
                              "vm name=A mem=1G vcpus=2"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("frobnicate"), std::invalid_argument);

  // Out-of-range churn knobs fail loudly on their own line instead of being
  // clamped by the driver.
  for (const char* churn : {
           "churn pause_prob=1.5", "churn pause_prob=-0.1",
           "churn tickers=2", "churn tickers=-1",
           "churn max_live=0",
           "churn vcpus_min=0", "churn vcpus_min=4 vcpus_max=2",
           "churn mem_min=0", "churn mem_min=2G mem_max=1G",
           "churn start=-1", "churn pause=-0.01"}) {
    try {
      parse_scenario(std::string("machine xeon_e5620\n") + churn + "\n");
      ADD_FAILURE() << "accepted: " << churn;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << churn << ": " << e.what();
    }
  }

  // Malformed, fractional or out-of-range numbers fail on their own line
  // and name the problem, instead of being truncated or cast out of range.
  const struct {
    const char* line;
    const char* message;
  } numbers[] = {
      {"vm name=B mem=abc vcpus=2", "malformed number: abc"},
      {"vm name=B mem=1G vcpus=2.7", "vcpus= must be a whole number"},
      {"vm name=B mem=1G vcpus=1e12", "vcpus= must be a whole number"},
      {"vm name=B mem=1G vcpus=2 host=-3e9", "host= must be a whole number"},
      {"vm name=B mem=1e30 vcpus=2", "mem= must be a whole number"},
      {"vm name=B mem=1G vcpus=2 alternate=2", "alternate= must be 0 or 1"},
      {"app vm=A kind=spec profile=milc measure=0.5", "measure= must be 0 or 1"},
      {"app vm=A kind=hungry count=1.5", "count= must be a whole number"},
      {"churn max_live=2.5", "max_live= must be a whole number"},
      {"openloop rps=1e3 requests=-1", "requests= must be a whole number"},
      // Directive arguments go through the same helpers, one argument each.
      {"seed 12abc", "malformed number: 12abc"},
      {"seed 1.5", "seed must be a whole number"},
      {"seed 9007199254740993", "seed must be a whole number"},
      {"scale 0.02x", "malformed number: 0.02x"},
      {"scale nan", "scale must be a positive number"},
      {"horizon 5 extra", "horizon takes one argument, got extra 'extra'"},
      {"sampling 0", "sampling must be a positive number"},
      {"machine xeon_e5620 four_node", "machine takes one argument"},
      {"scheduler", "scheduler needs an argument"},
      {"machines xeon_e5620*2.5", "machines count must be a whole number"},
      {"machines xeon_e5620*2x", "malformed number: 2x"},
  };
  for (const auto& row : numbers) {
    try {
      parse_scenario(std::string("vm name=A mem=1G vcpus=2\n") + row.line + "\n");
      ADD_FAILURE() << "accepted: " << row.line;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("scenario line 2: "), std::string::npos) << row.line << ": " << what;
      EXPECT_NE(what.find(row.message), std::string::npos) << row.line << ": " << what;
    }
  }
}

TEST(ScenarioFile, ErrorsCarryLineNumbers) {
  try {
    parse_scenario("machine xeon_e5620\nscheduler cfs\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ScenarioFile, RunsEndToEnd) {
  const stats::RunMetrics m = run_scenario(parse_scenario(kValidScenario));
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.scheduler, "LB");
  EXPECT_EQ(m.app_runtime_s.size(), 2u);  // the two measured milc instances
  EXPECT_GT(m.avg_runtime_s, 0.0);
  EXPECT_GT(m.total_mem_accesses, 0.0);
}

TEST(ScenarioFile, UnmeasuredScenarioRejected) {
  EXPECT_THROW(run_scenario(parse_scenario(R"(
vm name=A mem=1G vcpus=2
app vm=A kind=hungry
)")),
               std::invalid_argument);
}

TEST(ScenarioFile, OversizeVmRejectedByAdmission) {
  // A single machine admits its VMs through the same placement filter as a
  // fleet: a VM larger than the box is refused by name, not by bad_alloc.
  const ScenarioSpec spec = parse_scenario(R"(
machine xeon_e5620
vm name=big mem=100G vcpus=2
app vm=big kind=spec profile=soplex measure=1
)");
  try {
    run_scenario(spec);
    FAIL() << "oversize VM was admitted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("vm 'big'"), std::string::npos) << e.what();
  }
}

TEST(ScenarioFile, NpbAndFourNodeMachine) {
  const stats::RunMetrics m = run_scenario(parse_scenario(R"(
machine four_node
scheduler vprobe
scale 0.01
vm name=A mem=8G vcpus=8
app vm=A kind=npb profile=lu threads=4 measure=1
)"));
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.app_runtime_s.size(), 1u);
}

}  // namespace
}  // namespace vprobe::runner
