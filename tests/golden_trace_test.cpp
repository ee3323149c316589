// Golden-trace snapshot tests.
//
// Each scheduler runs the shared mini scenario at a fixed seed with the
// tracer attached; the digest of the full event stream is compared against
// tests/golden/traces.txt.  Any behavioural change in the engine, the
// hypervisor mechanics, or a scheduler's decisions shifts at least one
// digest — a deliberate change is re-blessed with
//
//   VPROBE_UPDATE_GOLDEN=1 ctest -L golden
//
// which rewrites the file in the source tree (path baked in at compile
// time via VPROBE_GOLDEN_DIR).
//
// The single-machine example scenarios (examples/scenarios/*.scn with a
// `machine` directive) are pinned the same way in tests/golden/scenarios.txt:
// an FNV-1a digest of run_scenario's JSON output, so the whole reported
// result — runtimes, counters, migrations, serving stats — must stay
// byte-identical.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "runner/churn.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_file.hpp"
#include "scenario_helpers.hpp"
#include "stats/json.hpp"
#include "trace/digest.hpp"
#include "trace/tracer.hpp"

namespace vprobe {
namespace {

constexpr std::uint64_t kGoldenSeed = 7;

std::string golden_path() {
  return std::string(VPROBE_GOLDEN_DIR) + "/traces.txt";
}

struct GoldenEntry {
  std::uint64_t records = 0;
  std::string digest;
};

std::map<std::string, GoldenEntry> load_goldens(const std::string& path = golden_path()) {
  std::map<std::string, GoldenEntry> goldens;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    GoldenEntry entry;
    if (fields >> key >> entry.records >> entry.digest) goldens[key] = entry;
  }
  return goldens;
}

void save_goldens(const std::map<std::string, GoldenEntry>& goldens,
                  const std::string& path, const std::string& header) {
  std::ofstream out(path);
  out << header;
  for (const auto& [key, entry] : goldens) {
    out << key << ' ' << entry.records << ' ' << entry.digest << '\n';
  }
}

void save_trace_goldens(const std::map<std::string, GoldenEntry>& goldens) {
  std::ostringstream header;
  header << "# Golden trace digests: <scheduler> <records> <fnv1a-64 hex>\n"
         << "# Mini scenario (tests/scenario_helpers.hpp), seed " << kGoldenSeed
         << ", 400 ms.\n"
         << "# churn_credit: same scenario under Credit plus a seeded ChurnDriver.\n"
         << "# Regenerate: VPROBE_UPDATE_GOLDEN=1 ctest -L golden\n";
  save_goldens(goldens, golden_path(), header.str());
}

bool update_mode() { return std::getenv("VPROBE_UPDATE_GOLDEN") != nullptr; }

/// Scenario-file spelling ("vcpu_p"), stable across display-name changes.
std::string sched_key(runner::SchedKind kind) {
  switch (kind) {
    case runner::SchedKind::kCredit: return "credit";
    case runner::SchedKind::kVprobe: return "vprobe";
    case runner::SchedKind::kVcpuP: return "vcpu_p";
    case runner::SchedKind::kLb: return "lb";
    case runner::SchedKind::kBrm: return "brm";
    case runner::SchedKind::kAutoNuma: return "autonuma";
  }
  return "?";
}

GoldenEntry run_and_digest(runner::SchedKind kind) {
  trace::Tracer tracer(1 << 20);  // must hold the whole run: no drops allowed
  test::MiniScenario sc = test::make_mini_scenario(kind, kGoldenSeed);
  sc.hv->set_tracer(&tracer);
  test::run_mini(sc);
  sc.hv->set_tracer(nullptr);

  EXPECT_EQ(tracer.dropped(), 0u) << "ring too small — digest would be partial";
  const auto records = tracer.snapshot();
  GoldenEntry entry;
  entry.records = records.size();
  entry.digest = trace::digest_hex(trace::digest_records(records));
  return entry;
}

class GoldenTrace : public ::testing::TestWithParam<runner::SchedKind> {};

TEST_P(GoldenTrace, MatchesCheckedInDigest) {
  const std::string key = sched_key(GetParam());
  const GoldenEntry actual = run_and_digest(GetParam());
  ASSERT_GT(actual.records, 0u);

  auto goldens = load_goldens();
  if (update_mode()) {
    goldens[key] = actual;
    save_trace_goldens(goldens);
    GTEST_SKIP() << "golden updated: " << key << " = " << actual.digest;
  }

  ASSERT_TRUE(goldens.count(key))
      << "no golden for '" << key << "' in " << golden_path()
      << " — run VPROBE_UPDATE_GOLDEN=1 ctest -L golden";
  EXPECT_EQ(goldens[key].records, actual.records) << key;
  EXPECT_EQ(goldens[key].digest, actual.digest)
      << key << ": trace stream changed. If intentional, regenerate with "
      << "VPROBE_UPDATE_GOLDEN=1 ctest -L golden";
}

// Dynamic-scenario digest: the same mini scenario under Credit with a
// seeded churn of arriving/pausing/departing VMs layered on top, drained at
// the horizon so the stream also covers the teardown events
// (kPause/kResume/kRetire/kDomainDestroy).  Pins the full lifecycle path —
// retirement ordering, freed-memory bookkeeping, paused-wake latching —
// byte-for-byte.
TEST(GoldenTrace, ChurnScenarioMatchesCheckedInDigest) {
  const std::string key = "churn_credit";
  trace::Tracer tracer(1 << 20);
  test::MiniScenario sc =
      test::make_mini_scenario(runner::SchedKind::kCredit, kGoldenSeed);
  sc.hv->set_tracer(&tracer);

  runner::ChurnOptions copts;
  copts.seed = kGoldenSeed;
  copts.start_after = sim::Time::ms(10);
  copts.mean_interarrival = sim::Time::ms(30);
  copts.mean_lifetime = sim::Time::ms(80);
  copts.pause_probability = 0.4;
  copts.mean_pause = sim::Time::ms(15);
  copts.max_live = 4;
  runner::ChurnDriver churn(*sc.hv, copts);
  churn.start();
  test::run_mini(sc);
  churn.drain();
  sc.hv->set_tracer(nullptr);

  EXPECT_EQ(tracer.dropped(), 0u) << "ring too small — digest would be partial";
  ASSERT_GT(churn.arrivals(), 0u) << "churn never fired: digest covers nothing new";
  ASSERT_GT(churn.departures(), 0u);

  const auto records = tracer.snapshot();
  GoldenEntry actual;
  actual.records = records.size();
  actual.digest = trace::digest_hex(trace::digest_records(records));

  auto goldens = load_goldens();
  if (update_mode()) {
    goldens[key] = actual;
    save_trace_goldens(goldens);
    GTEST_SKIP() << "golden updated: " << key << " = " << actual.digest;
  }
  ASSERT_TRUE(goldens.count(key))
      << "no golden for '" << key << "' in " << golden_path()
      << " — run VPROBE_UPDATE_GOLDEN=1 ctest -L golden";
  EXPECT_EQ(goldens[key].records, actual.records) << key;
  EXPECT_EQ(goldens[key].digest, actual.digest)
      << key << ": trace stream changed. If intentional, regenerate with "
      << "VPROBE_UPDATE_GOLDEN=1 ctest -L golden";
}

TEST(GoldenTrace, DigestIsReproducibleWithinProcess) {
  const GoldenEntry a = run_and_digest(runner::SchedKind::kCredit);
  const GoldenEntry b = run_and_digest(runner::SchedKind::kCredit);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.digest, b.digest);
}

std::string test_name(std::string key) {
  for (char& c : key) {
    if (c == '_') c = 'P';  // gtest names must be alphanumeric
  }
  return key;
}

std::string sched_test_name(const ::testing::TestParamInfo<runner::SchedKind>& info) {
  return test_name(sched_key(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, GoldenTrace,
                         ::testing::ValuesIn(runner::all_schedulers().begin(),
                                             runner::all_schedulers().end()),
                         sched_test_name);

// -- Single-machine scenario outputs --------------------------------------------

std::string scenarios_golden_path() {
  return std::string(VPROBE_GOLDEN_DIR) + "/scenarios.txt";
}

constexpr const char* kScenarioGoldenHeader =
    "# Single-machine scenario goldens: <scenario>_<scheduler> <json bytes>"
    " <fnv1a-64 hex>\n"
    "# examples/scenarios/<scenario>.scn at its own seed, scheduler"
    " overridden;\n"
    "# the digest is FNV-1a over run_scenario's stats::to_json output.\n"
    "# Regenerate: VPROBE_UPDATE_GOLDEN=1 ctest -L golden\n";

struct ScenarioCase {
  const char* scenario;
  runner::SchedKind sched;
};

// Without this gtest prints the raw bytes (a pointer and padding), which
// would make the listed test names differ from build to build.
void PrintTo(const ScenarioCase& c, std::ostream* os) {
  *os << c.scenario << ' ' << sched_key(c.sched);
}

class GoldenScenario : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(GoldenScenario, JsonMatchesCheckedInDigest) {
  const ScenarioCase& c = GetParam();
  const std::string key = std::string(c.scenario) + "_" + sched_key(c.sched);
  std::ifstream in(std::string(VPROBE_SCENARIO_DIR) + "/" + c.scenario + ".scn");
  ASSERT_TRUE(in.is_open()) << "missing scenario " << c.scenario;
  std::ostringstream text;
  text << in.rdbuf();
  runner::ScenarioSpec spec = runner::parse_scenario(text.str());
  ASSERT_FALSE(spec.cluster_mode()) << key << " must be a single-machine spec";
  spec.sched = c.sched;

  const stats::RunMetrics m = runner::run_scenario(spec);
  ASSERT_TRUE(m.completed) << key;
  const std::string json = stats::to_json(m);
  GoldenEntry actual;
  actual.records = json.size();
  actual.digest = trace::digest_hex(trace::fnv1a_bytes(trace::fnv1a_basis(), json));

  auto goldens = load_goldens(scenarios_golden_path());
  if (update_mode()) {
    goldens[key] = actual;
    save_goldens(goldens, scenarios_golden_path(), kScenarioGoldenHeader);
    GTEST_SKIP() << "golden updated: " << key << " = " << actual.digest;
  }
  ASSERT_TRUE(goldens.count(key))
      << "no golden for '" << key << "' in " << scenarios_golden_path()
      << " — run VPROBE_UPDATE_GOLDEN=1 ctest -L golden";
  EXPECT_EQ(goldens[key].records, actual.records) << key;
  EXPECT_EQ(goldens[key].digest, actual.digest)
      << key << ": scenario output changed. If intentional, regenerate with "
      << "VPROBE_UPDATE_GOLDEN=1 ctest -L golden";
}

std::string scenario_test_name(const ::testing::TestParamInfo<ScenarioCase>& info) {
  return test_name(std::string(info.param.scenario) + "_" + sched_key(info.param.sched));
}

INSTANTIATE_TEST_SUITE_P(
    MachineScenarios, GoldenScenario,
    ::testing::Values(ScenarioCase{"paper_soplex", runner::SchedKind::kCredit},
                      ScenarioCase{"paper_soplex", runner::SchedKind::kVprobe},
                      ScenarioCase{"churn_mix", runner::SchedKind::kCredit},
                      ScenarioCase{"churn_mix", runner::SchedKind::kVprobe},
                      ScenarioCase{"four_node_mix", runner::SchedKind::kCredit},
                      ScenarioCase{"four_node_mix", runner::SchedKind::kVprobe}),
    scenario_test_name);

}  // namespace
}  // namespace vprobe
