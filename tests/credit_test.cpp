// Credit scheduler behaviour tests: credits/priorities, boost, fairness,
// and NUMA-oblivious stealing, plus the steal-order oracle for the
// occupancy-set scans of Credit and Algorithm 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/numa_balance.hpp"
#include "test_helpers.hpp"

namespace vprobe::hv {
namespace {

using test::FakeWork;
using test::kTestGB;
using test::make_credit_hv;

class CreditTest : public ::testing::Test {
 protected:
  void SetUp() override { hv_ = make_credit_hv(); }

  Domain& make_domain(int vcpus, numa::NodeId node = 0) {
    return hv_->create_domain("VM" + std::to_string(++doms_), 2 * kTestGB,
                              vcpus, numa::PlacementPolicy::kFillFirst, node);
  }

  FakeWork& spin_forever(Vcpu& v) {
    works_.push_back(std::make_unique<FakeWork>());
    hv_->bind_work(v, *works_.back());
    return *works_.back();
  }

  std::unique_ptr<Hypervisor> hv_;
  std::vector<std::unique_ptr<FakeWork>> works_;
  int doms_ = 0;
};

TEST_F(CreditTest, NewVcpuStartsUnderWithZeroCredits) {
  Domain& dom = make_domain(1);
  EXPECT_EQ(dom.vcpu(0).priority, CreditPrio::kUnder);
  EXPECT_DOUBLE_EQ(dom.vcpu(0).credits, 0.0);
}

TEST_F(CreditTest, AccountingGrantsCredits) {
  Domain& dom = make_domain(2);
  spin_forever(dom.vcpu(0));
  spin_forever(dom.vcpu(1));
  hv_->start();
  hv_->wake(dom.vcpu(0));
  hv_->wake(dom.vcpu(1));
  hv_->engine().run_until(sim::Time::ms(35));
  // 2 active VCPUs share 8 PCPUs' worth of credit: they pile up fast and
  // stay clamped at the cap.
  EXPECT_GT(dom.vcpu(0).credits, 0.0);
}

TEST_F(CreditTest, RunningBurnsCredits) {
  Domain& dom = make_domain(1);
  spin_forever(dom.vcpu(0));
  hv_->start();
  hv_->wake(dom.vcpu(0));
  const double before = dom.vcpu(0).credits;
  hv_->engine().run_until(sim::Time::ms(15));  // one tick, no accounting yet
  EXPECT_LT(dom.vcpu(0).credits, before);
}

TEST_F(CreditTest, OversubscribedVcpusGoOverAndShareFairly) {
  // 24 spinners on 8 PCPUs: per-VCPU share is 1/3 of a PCPU, so everyone's
  // credits trend negative (OVER) but CPU time stays even.
  Domain& dom1 = make_domain(8, 0);
  Domain& dom2 = make_domain(8, 1);
  Domain& dom3 = make_domain(8, 1);
  for (auto* d : {&dom1, &dom2, &dom3}) {
    for (std::size_t i = 0; i < 8; ++i) spin_forever(d->vcpu(i));
  }
  hv_->start();
  for (auto* d : {&dom1, &dom2, &dom3}) {
    for (std::size_t i = 0; i < 8; ++i) hv_->wake(d->vcpu(i));
  }
  hv_->engine().run_until(sim::Time::sec(3));

  double min_exec = 1e300, max_exec = 0.0;
  for (auto& w : works_) {
    min_exec = std::min(min_exec, w->executed);
    max_exec = std::max(max_exec, w->executed);
  }
  EXPECT_GT(min_exec, 0.0);
  EXPECT_LT(max_exec / min_exec, 1.6) << "Credit fairness drifted";
}

TEST_F(CreditTest, WakeBoostsUnderVcpu) {
  Domain& dom = make_domain(2);
  FakeWork& sleeper = spin_forever(dom.vcpu(0));
  sleeper.burst = 1e6;  // blocks quickly
  spin_forever(dom.vcpu(1));
  hv_->start();
  hv_->wake(dom.vcpu(0));
  hv_->engine().run_until(sim::Time::ms(10));
  ASSERT_EQ(dom.vcpu(0).state, VcpuState::kBlocked);
  hv_->wake(dom.vcpu(0));
  EXPECT_EQ(dom.vcpu(0).priority, CreditPrio::kBoost);
}

TEST_F(CreditTest, IdlePcpuStealsQueuedWork) {
  // Two spinners booted onto node 0; node 1 is idle and must pull one over.
  Domain& dom = make_domain(2, 0);
  spin_forever(dom.vcpu(0));
  spin_forever(dom.vcpu(1));
  // Force both onto the same PCPU queue.
  dom.vcpu(0).pcpu = 0;
  dom.vcpu(1).pcpu = 0;
  hv_->start();
  hv_->wake(dom.vcpu(0));
  hv_->wake(dom.vcpu(1));
  hv_->engine().run_until(sim::Time::ms(200));
  // Both should be running on *different* PCPUs now.
  EXPECT_EQ(dom.vcpu(0).state, VcpuState::kRunning);
  EXPECT_EQ(dom.vcpu(1).state, VcpuState::kRunning);
  EXPECT_NE(dom.vcpu(0).pcpu, dom.vcpu(1).pcpu);
}

TEST_F(CreditTest, CreditStealIsNumaOblivious) {
  // 16 spinners across the machine under Credit: with churn from blocking
  // workloads, cross-node migrations happen freely.
  Domain& dom = make_domain(8, 0);
  Domain& dom2 = make_domain(8, 0);
  for (std::size_t i = 0; i < 8; ++i) {
    FakeWork& w = spin_forever(dom.vcpu(i));
    w.burst = 4e6;
    w.block_for = sim::Time::ms(1);
    spin_forever(dom2.vcpu(i));
  }
  hv_->start();
  for (std::size_t i = 0; i < 8; ++i) {
    hv_->wake(dom.vcpu(i));
    hv_->wake(dom2.vcpu(i));
  }
  hv_->engine().run_until(sim::Time::sec(2));
  EXPECT_GT(hv_->total_cross_node_migrations(), 0u)
      << "plain Credit should migrate across nodes without hesitation";
}

TEST_F(CreditTest, TickFlipsUnderToOverExactlyAtZero) {
  // The UNDER/OVER boundary: a tick burns credits_per_tick; the sign of the
  // result decides the priority class, with credits == 0 still UNDER.
  Domain& dom = make_domain(1);
  Vcpu& v = dom.vcpu(0);
  auto& sched = static_cast<CreditScheduler&>(hv_->scheduler());
  const auto& p = sched.params();

  hv_->pcpu(0).current = &v;
  v.state = VcpuState::kRunning;
  v.pcpu = 0;

  v.credits = p.credits_per_tick / 2;  // burns through zero
  v.priority = CreditPrio::kUnder;
  sched.tick(hv_->pcpu(0));
  EXPECT_DOUBLE_EQ(v.credits, -p.credits_per_tick / 2);
  EXPECT_EQ(v.priority, CreditPrio::kOver);

  v.credits = p.credits_per_tick;  // lands exactly on zero: still UNDER
  v.priority = CreditPrio::kUnder;
  sched.tick(hv_->pcpu(0));
  EXPECT_DOUBLE_EQ(v.credits, 0.0);
  EXPECT_EQ(v.priority, CreditPrio::kUnder);

  hv_->pcpu(0).current = nullptr;  // restore before teardown
  v.state = VcpuState::kBlocked;
}

TEST_F(CreditTest, TickClampsDebtAtFloor) {
  Domain& dom = make_domain(1);
  Vcpu& v = dom.vcpu(0);
  auto& sched = static_cast<CreditScheduler&>(hv_->scheduler());
  const auto& p = sched.params();

  hv_->pcpu(0).current = &v;
  v.state = VcpuState::kRunning;
  v.pcpu = 0;
  v.credits = p.credit_floor + 1.0;  // one more tick would overshoot
  sched.tick(hv_->pcpu(0));
  EXPECT_DOUBLE_EQ(v.credits, p.credit_floor);
  EXPECT_EQ(v.priority, CreditPrio::kOver);

  hv_->pcpu(0).current = nullptr;
  v.state = VcpuState::kBlocked;
}

TEST_F(CreditTest, AccountingClampsGrantsAtCap) {
  // One active VCPU receives the whole machine's credit budget (8 PCPUs ×
  // 3 ticks × 100 credits = 2400 per pass) but may never exceed the cap.
  Domain& dom = make_domain(1);
  Vcpu& v = dom.vcpu(0);
  auto& sched = static_cast<CreditScheduler&>(hv_->scheduler());
  const auto& p = sched.params();

  v.credit_active = true;
  v.credits = p.credit_cap - 10.0;
  sched.accounting();
  EXPECT_DOUBLE_EQ(v.credits, p.credit_cap);
  EXPECT_EQ(v.priority, CreditPrio::kUnder);
  EXPECT_FALSE(v.credit_active) << "accounting must reset the activity flag";
}

TEST_F(CreditTest, AccountingRestoresOverVcpuToUnder) {
  // A deep-in-debt VCPU that is the only active one gets more than enough
  // share to climb back over the boundary; its priority must follow.
  Domain& dom = make_domain(1);
  Vcpu& v = dom.vcpu(0);
  auto& sched = static_cast<CreditScheduler&>(hv_->scheduler());
  const auto& p = sched.params();

  v.credits = p.credit_floor;
  v.priority = CreditPrio::kOver;
  v.credit_active = true;
  sched.accounting();
  EXPECT_GT(v.credits, 0.0);
  EXPECT_EQ(v.priority, CreditPrio::kUnder);
}

TEST_F(CreditTest, WorkStealingFillsPcpuThatIdlesMidTick) {
  // 9 runnable VCPUs on 8 PCPUs: one short-lived VCPU finishes ~2 ms in,
  // leaving its PCPU idle mid-tick (first tick is at 10 ms).  The freed
  // PCPU must immediately steal the queued ninth VCPU — by 5 ms every PCPU
  // is busy again and all eight spinners run simultaneously.
  Domain& dom = make_domain(8, 0);
  Domain& dom2 = make_domain(1, 1);
  for (std::size_t i = 0; i < 8; ++i) spin_forever(dom.vcpu(i));
  FakeWork& finisher = spin_forever(dom2.vcpu(0));
  finisher.total_instructions = 4e6;  // ≈2 ms at the calibrated rate

  hv_->start();
  hv_->wake(dom2.vcpu(0));  // first in line: gets a PCPU, not a queue slot
  for (std::size_t i = 0; i < 8; ++i) hv_->wake(dom.vcpu(i));
  hv_->engine().run_until(sim::Time::ms(5));

  ASSERT_TRUE(finisher.finished) << "executed " << finisher.executed;
  EXPECT_EQ(dom2.vcpu(0).state, VcpuState::kDone);
  for (auto& p : hv_->pcpus()) {
    EXPECT_TRUE(p.busy()) << "pcpu " << p.id
                          << " idle despite queued work after mid-tick finish";
  }
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(dom.vcpu(i).state, VcpuState::kRunning) << i;
  }
}

TEST_F(CreditTest, AccountingRenormalizesAfterDomainDestroy) {
  // 12 spinners on 8 PCPUs: everyone's share is 2/3 of a PCPU and credits
  // hover near zero.  When the 8-VCPU domain leaves mid-run, the accounting
  // pass must re-split the whole machine's budget over the 4 survivors —
  // no share may stay reserved for the dead VM's VCPUs.
  Domain& stay = make_domain(4, 0);
  Domain& leave = make_domain(8, 1);
  for (std::size_t i = 0; i < 4; ++i) spin_forever(stay.vcpu(i));
  for (std::size_t i = 0; i < 8; ++i) spin_forever(leave.vcpu(i));
  hv_->start();
  for (std::size_t i = 0; i < 4; ++i) hv_->wake(stay.vcpu(i));
  for (std::size_t i = 0; i < 8; ++i) hv_->wake(leave.vcpu(i));
  hv_->engine().run_until(sim::Time::sec(1));

  const auto& p = static_cast<CreditScheduler&>(hv_->scheduler()).params();
  double min_credits = 1e300;
  for (std::size_t i = 0; i < 4; ++i) {
    min_credits = std::min(min_credits, stay.vcpu(i).credits);
  }
  EXPECT_LT(min_credits, p.credit_cap / 2)
      << "oversubscribed VCPUs should sit far below the credit cap";

  hv_->destroy_domain(leave);
  ASSERT_EQ(hv_->all_vcpus().size(), 4u);
  hv_->engine().run_until(sim::Time::sec(2));

  // 4 active VCPUs on 8 PCPUs: each survivor's grant (2400/4 per pass)
  // exceeds its burn (≤300 per pass), so credits recover into [0, cap] and
  // priority returns to UNDER.
  for (std::size_t i = 0; i < 4; ++i) {
    Vcpu& v = stay.vcpu(i);
    EXPECT_EQ(v.state, VcpuState::kRunning) << i;
    EXPECT_GE(v.credits, 0.0) << i;
    EXPECT_LE(v.credits, p.credit_cap) << i;
    EXPECT_NE(v.priority, CreditPrio::kOver) << i;
  }
}

TEST_F(CreditTest, BlockedVcpusDoNotEatCpu) {
  Domain& dom = make_domain(2);
  FakeWork& active = spin_forever(dom.vcpu(0));
  spin_forever(dom.vcpu(1));  // never woken
  hv_->start();
  hv_->wake(dom.vcpu(0));
  hv_->engine().run_until(sim::Time::sec(1));
  EXPECT_GT(active.executed, 0.0);
  EXPECT_DOUBLE_EQ(works_[1]->executed, 0.0);
  EXPECT_EQ(dom.vcpu(1).state, VcpuState::kBlocked);
}

// ------------------------------------------------------ steal-order oracle ----
//
// Both steals visit only occupied run queues (Hypervisor::occupied_pcpus).
// The oracles below are the full scans that walk every PCPU, empty or not;
// from identical state both must pick the same victim and leave the RNG at
// the same position.

/// Credit with steal() made callable from the test.
class StealProbe : public CreditScheduler {
 public:
  using CreditScheduler::steal;
};

/// Full-scan Credit steal: every PCPU in (start + offset) % n order.
/// Returns the victim without dequeuing it.
Vcpu* credit_steal_oracle(Hypervisor& hv, sim::Rng& rng, const Pcpu& thief,
                          int weaker_than) {
  auto& pcpus = hv.pcpus();
  const int n = static_cast<int>(pcpus.size());
  const int start = static_cast<int>(rng.uniform_int(0, n - 1));
  for (int offset = 0; offset < n; ++offset) {
    Pcpu& victim = pcpus[static_cast<std::size_t>((start + offset) % n)];
    if (victim.id == thief.id) continue;
    for (Vcpu* v : victim.queue.items()) {
      if (!v->allowed_on(thief.id)) continue;
      if (static_cast<int>(v->priority) < weaker_than) return v;
    }
  }
  return nullptr;
}

/// Full-scan Algorithm 2: a freshly allocated loadList of every peer of each
/// node, stable-sorted by workload.  Returns the victim without dequeuing it.
Vcpu* balancer_steal_oracle(Hypervisor& hv, const Pcpu& thief, int weaker_than,
                            bool local_only) {
  const auto& topo = hv.topology();
  for (numa::NodeId node : topo.nodes_by_distance(thief.node)) {
    if (local_only && node != thief.node) break;
    std::vector<Pcpu*> load_list;
    for (numa::PcpuId pid : topo.pcpus_of(node)) {
      if (pid == thief.id) continue;
      load_list.push_back(&hv.pcpu(pid));
    }
    std::stable_sort(load_list.begin(), load_list.end(),
                     [](const Pcpu* a, const Pcpu* b) {
                       return a->workload() > b->workload();
                     });
    for (Pcpu* victim : load_list) {
      if (victim->queue.empty()) continue;
      Vcpu* best = nullptr;
      double best_pressure = 0.0;
      for (Vcpu* v : victim->queue.items()) {
        if (static_cast<int>(v->priority) >= weaker_than) continue;
        if (!v->allowed_on(thief.id)) continue;
        const double pressure = core::NumaAwareBalancer::live_pressure(*v);
        if (best == nullptr || pressure < best_pressure) {
          best = v;
          best_pressure = pressure;
        }
      }
      if (best != nullptr) return best;
    }
  }
  return nullptr;
}

/// Next value of a copy: compares RNG positions without advancing either.
std::uint64_t peek(const sim::Rng& rng) {
  sim::Rng copy = rng;
  return copy.next();
}

numa::MachineConfig three_by_24() {
  numa::MachineConfig cfg = numa::MachineConfig::xeon_e5620();
  cfg.num_nodes = 3;
  cfg.cores_per_node = 24;  // 72 PCPUs: the occupancy set spans two words
  cfg.validate();
  return cfg;
}

TEST(Affinity, UnpinnedVcpusRunOnPcpusPast63) {
  // The all-ones mask means "every PCPU", so on 72 PCPUs an unpinned VCPU
  // may run on 64..71 too: with one spinning VCPU per PCPU, each of those
  // PCPUs does real work instead of idling behind a 64-bit mask.
  Hypervisor::Config cfg;
  cfg.machine = three_by_24();
  cfg.seed = 3;
  Hypervisor hv(cfg, std::make_unique<CreditScheduler>());
  const int n = cfg.machine.total_pcpus();
  Domain& dom = hv.create_domain("VM", 4 * kTestGB, n,
                                 numa::PlacementPolicy::kFillFirst);
  std::vector<std::unique_ptr<FakeWork>> works;
  for (std::size_t i = 0; i < dom.num_vcpus(); ++i) {
    Vcpu& v = dom.vcpu(i);
    for (numa::PcpuId p = 0; p < n; ++p) ASSERT_TRUE(v.allowed_on(p)) << p;
    works.push_back(std::make_unique<FakeWork>());
    hv.bind_work(v, *works.back());
  }
  hv.start();
  for (std::size_t i = 0; i < dom.num_vcpus(); ++i) hv.wake(dom.vcpu(i));
  hv.engine().run_until(sim::Time::ms(100));
  for (numa::PcpuId p = 64; p < n; ++p) {
    EXPECT_GT(hv.pcpu(p).busy_time, sim::Time::zero()) << "PCPU " << p;
  }

  // A pin names one PCPU of the 64-bit mask; later PCPUs cannot be named.
  Vcpu& v = dom.vcpu(0);
  v.pin_to(5);
  EXPECT_TRUE(v.is_pinned());
  EXPECT_TRUE(v.allowed_on(5));
  EXPECT_FALSE(v.allowed_on(6));
  EXPECT_FALSE(v.allowed_on(70));
  EXPECT_FALSE(v.allowed_on(numa::kInvalidPcpu));
  EXPECT_THROW(v.pin_to(64), std::invalid_argument);
  EXPECT_THROW(v.pin_to(-1), std::invalid_argument);
  EXPECT_EQ(v.affinity_mask, 1ull << 5) << "a refused pin leaves the mask";
}

class StealOracle : public ::testing::TestWithParam<numa::MachineConfig> {};

TEST_P(StealOracle, BitsetStealsMatchFullScans) {
  constexpr int kIdle = static_cast<int>(CreditPrio::kOver) + 1;
  constexpr int kFair = static_cast<int>(CreditPrio::kOver);
  const numa::MachineConfig machine = GetParam();
  const int n = machine.total_pcpus();
  int credit_hits = 0, balancer_hits = 0, misses = 0, high_starts = 0;

  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    Hypervisor::Config cfg;
    cfg.machine = machine;
    cfg.seed = trial + 1;
    Hypervisor hv(cfg, std::make_unique<StealProbe>());
    auto& sched = static_cast<StealProbe&>(hv.scheduler());
    core::NumaAwareBalancer balancer;
    sim::Rng gen(1000 + trial);  // the test's own draws, never hv.rng()

    // Random occupancy: from nearly empty to every VCPU queued.
    Domain& dom = hv.create_domain("VM", kTestGB, 2 * n,
                                   numa::PlacementPolicy::kFillFirst);
    const double density = std::array{0.0, 0.03, 0.15, 0.5, 1.0}[trial % 5];
    for (std::size_t i = 0; i < dom.num_vcpus(); ++i) {
      Vcpu& v = dom.vcpu(i);
      v.priority = static_cast<CreditPrio>(gen.uniform_int(0, 2));
      v.llc_pressure = static_cast<double>(gen.uniform_int(0, 3));  // ties
      if (gen.chance(0.2)) v.affinity_mask = gen.next();
      if (!gen.chance(density)) continue;
      v.state = VcpuState::kRunnable;
      v.pcpu = static_cast<numa::PcpuId>(gen.uniform_int(0, n - 1));
      hv.pcpu(v.pcpu).queue.insert(v);
    }

    // Steal until a few misses: victims leave their queues, so occupancy
    // bits clear along the way.
    for (int step = 0, trial_misses = 0; step < 4 * n && trial_misses < 4; ++step) {
      Pcpu& thief = hv.pcpu(static_cast<numa::PcpuId>(gen.uniform_int(0, n - 1)));
      const int kind = static_cast<int>(gen.uniform_int(0, 3));
      const int weaker_than = (kind == 1 || gen.chance(0.5)) ? kFair : kIdle;
      const std::uint64_t rng_before = peek(hv.rng());
      Vcpu* expected = nullptr;
      Vcpu* got = nullptr;
      if (kind <= 1) {
        sim::Rng oracle_rng = hv.rng();
        if (sim::Rng(oracle_rng).uniform_int(0, n - 1) >= 64) ++high_starts;
        expected = credit_steal_oracle(hv, oracle_rng, thief, weaker_than);
        got = sched.steal(thief, weaker_than);
        EXPECT_EQ(peek(hv.rng()), peek(oracle_rng))
            << "Credit steal moved the RNG differently from the full scan";
        credit_hits += got != nullptr;
      } else {
        const bool local_only = kind == 3;
        expected = balancer_steal_oracle(hv, thief, weaker_than, local_only);
        got = balancer.steal(hv, thief, weaker_than, local_only);
        EXPECT_EQ(peek(hv.rng()), rng_before) << "Algorithm 2 drew from the RNG";
        balancer_hits += got != nullptr;
      }
      ASSERT_EQ(got, expected) << "trial " << trial << " step " << step
                               << " kind " << kind << " thief " << thief.id;
      if (got == nullptr) {
        ++misses;
        ++trial_misses;
        continue;
      }
      EXPECT_FALSE(got->in_runqueue);
      // Hand the victim to the thief's queue (as do_schedule's caller
      // would run it there) so occupancy keeps changing in both directions.
      if (got->allowed_on(thief.id) && gen.chance(0.5)) {
        got->pcpu = thief.id;
        thief.queue.insert(*got);
      } else {
        got->state = VcpuState::kBlocked;
      }
      for (const Pcpu& p : hv.pcpus()) {
        ASSERT_EQ(hv.occupied_pcpus().test(p.id), !p.queue.empty()) << p.id;
      }
    }
  }
  // The sweep must exercise both outcomes of both steals.
  EXPECT_GT(credit_hits, 0);
  EXPECT_GT(balancer_hits, 0);
  EXPECT_GT(misses, 0);
  if (n > 64) {
    EXPECT_GT(high_starts, 0) << "start never landed in the second word";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, StealOracle,
    ::testing::Values(numa::MachineConfig::xeon_e5620(),
                      numa::MachineConfig::four_node_server(), three_by_24()),
    [](const auto& param_info) {
      return std::to_string(param_info.param.total_pcpus()) + "Pcpus";
    });

}  // namespace
}  // namespace vprobe::hv
