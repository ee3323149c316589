// Differential regression tests: the same scenario through every scheduler
// at several seeds, asserting the invariants any correct scheduler must
// share.  Schedulers are free to make different placement decisions — that
// is the point of the paper — but none may starve a VCPU, manufacture or
// lose work, or violate the credit/run-queue/memory rules the invariant
// checker encodes.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "check/invariants.hpp"
#include "runner/scenario.hpp"
#include "scenario_helpers.hpp"

namespace vprobe {
namespace {

using Param = std::tuple<runner::SchedKind, std::uint64_t>;

constexpr std::uint64_t kSeeds[] = {11, 12, 13};
constexpr sim::Time kHorizon = sim::Time::ms(400);

class Differential : public ::testing::TestWithParam<Param> {};

TEST_P(Differential, SharedInvariantsHold) {
  const auto [kind, seed] = GetParam();

  test::MiniScenario sc = test::make_mini_scenario(kind, seed);
  check::InvariantChecker checker;  // destroyed (detached) before sc.hv
  checker.attach(*sc.hv);
  test::run_mini(sc, kHorizon);
  checker.expect_ok();

  // No starvation: every VCPU carries runnable work the whole window, so
  // every scheduler must have given each of them some CPU.
  for (std::size_t i = 0; i < sc.works.size(); ++i) {
    EXPECT_GT(sc.works[i]->executed, 0.0)
        << to_string(kind) << " seed " << seed << " starved work " << i;
  }

  // Work conservation: what the works advanced is what the PMU retired.
  double executed = 0.0;
  for (const auto& w : sc.works) executed += w->executed;
  double retired = 0.0;
  for (const hv::Vcpu* v : sc.hv->all_vcpus()) {
    retired += v->pmu.cumulative().instr_retired;
  }
  EXPECT_NEAR(executed, retired, executed * 1e-9);

  // Sane bounds: busy time cannot exceed wall time × PCPUs, and cross-node
  // migrations are a subset of all migrations.
  const double wall_s = sc.hv->now().to_seconds();
  const double pcpus = static_cast<double>(sc.hv->pcpus().size());
  EXPECT_LE(sc.hv->total_busy_time().to_seconds(), wall_s * pcpus * 1.001);
  EXPECT_GT(sc.hv->total_busy_time().to_seconds(), 0.0);
  EXPECT_LE(sc.hv->total_cross_node_migrations(), sc.hv->total_migrations());
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string name = to_string(std::get<0>(info.param));
  std::erase_if(name, [](char c) { return !std::isalnum(
      static_cast<unsigned char>(c)); });
  return name + "Seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulersAllSeeds, Differential,
    ::testing::Combine(::testing::ValuesIn(runner::all_schedulers().begin(),
                                           runner::all_schedulers().end()),
                       ::testing::ValuesIn(kSeeds)),
    param_name);

// An oversubscribed machine full of spinners leaves no excuse for idling:
// whatever placement policy runs, total busy time must stay close to the
// machine capacity — the work-conserving property all six share.
TEST(Differential, AllSchedulersAreWorkConserving) {
  std::vector<double> busy_fractions;
  for (runner::SchedKind kind : runner::all_schedulers()) {
    test::MiniScenario sc = test::make_mini_scenario(kind, 11);
    test::run_mini(sc, kHorizon);
    const double capacity =
        sc.hv->now().to_seconds() * static_cast<double>(sc.hv->pcpus().size());
    busy_fractions.push_back(sc.hv->total_busy_time().to_seconds() / capacity);
  }
  for (std::size_t i = 0; i < busy_fractions.size(); ++i) {
    // Half the VCPUs spin forever; 12 runnable VCPUs on 8 PCPUs can keep
    // every PCPU busy modulo context-switch/wake latency slack.
    EXPECT_GT(busy_fractions[i], 0.80)
        << to_string(runner::all_schedulers()[i]);
    EXPECT_LE(busy_fractions[i], 1.001)
        << to_string(runner::all_schedulers()[i]);
  }
}

}  // namespace
}  // namespace vprobe
