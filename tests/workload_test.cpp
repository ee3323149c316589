// Workload model tests: profile database, ComputeThread, NPB barriers,
// hungry loops, request server, memcached client, redis workload.
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "workload/hungry.hpp"
#include "workload/memcached.hpp"
#include "workload/npb.hpp"
#include "workload/profile.hpp"
#include "workload/redis.hpp"
#include "workload/spec.hpp"

namespace vprobe::wl {
namespace {

using test::kTestGB;
using test::make_credit_hv;

// ------------------------------------------------------------ Profiles ----

TEST(Profiles, Figure3RptiValuesMatchPaper) {
  EXPECT_DOUBLE_EQ(profile("povray").rpti, 0.48);
  EXPECT_DOUBLE_EQ(profile("ep").rpti, 2.01);
  EXPECT_DOUBLE_EQ(profile("lu").rpti, 15.38);
  EXPECT_DOUBLE_EQ(profile("mg").rpti, 16.33);
  EXPECT_DOUBLE_EQ(profile("milc").rpti, 21.68);
  EXPECT_DOUBLE_EQ(profile("libquantum").rpti, 22.41);
}

TEST(Profiles, ClassificationMatchesPaperBounds) {
  // With low=3, high=20: povray/ep are LLC-FR, lu/mg LLC-FI, milc/libq LLC-T.
  EXPECT_TRUE(profile("povray").is_llc_friendly());
  EXPECT_TRUE(profile("ep").is_llc_friendly());
  EXPECT_FALSE(profile("lu").is_llc_friendly());
  EXPECT_FALSE(profile("lu").is_llc_thrashing());
  EXPECT_TRUE(profile("milc").is_llc_thrashing());
  EXPECT_TRUE(profile("libquantum").is_llc_thrashing());
}

TEST(Profiles, UnknownNameThrows) {
  EXPECT_THROW(profile("nonexistent"), std::out_of_range);
  EXPECT_FALSE(has_profile("nonexistent"));
  EXPECT_TRUE(has_profile("soplex"));
}

TEST(Profiles, AllProfilesAreSane) {
  for (const auto& p : all_profiles()) {
    EXPECT_GE(p.rpti, 0.0) << p.name;
    EXPECT_GE(p.solo_miss, 0.0) << p.name;
    EXPECT_LE(p.solo_miss, 1.0) << p.name;
    EXPECT_GT(p.working_set_bytes, 0.0) << p.name;
    EXPECT_GT(p.footprint_bytes, 0) << p.name;
    EXPECT_GT(p.default_instructions, 0.0) << p.name;
    EXPECT_GE(p.phases, 1) << p.name;
  }
}

TEST(Profiles, Figure3ListHasSixApps) {
  EXPECT_EQ(figure3_apps().size(), 6u);
}

// ------------------------------------------------------- ComputeThread ----

TEST(ComputeThread, RejectsBadInit) {
  auto hv = make_credit_hv();
  hv::Domain& dom = hv->create_domain("VM1", 1 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  ComputeThread::Init init;  // missing everything
  EXPECT_THROW(ComputeThread{init}, std::invalid_argument);
  init.profile = &profile("soplex");
  init.memory = &dom.memory();
  EXPECT_THROW(ComputeThread{init}, std::invalid_argument);  // empty region
}

TEST(ComputeThread, PhaseSliceCoversRegion) {
  const numa::Region r{10, 9};
  std::int64_t covered = 0;
  for (int p = 0; p < 4; ++p) {
    covered += phase_slice(r, p, 4).num_chunks;
  }
  EXPECT_GE(covered, r.num_chunks);
  EXPECT_EQ(phase_slice(r, 0, 4).first_chunk, 10);
  const auto last = phase_slice(r, 3, 4);
  EXPECT_EQ(last.first_chunk + last.num_chunks, 19);
}

TEST(ComputeThread, ReportsProgressAndFinish) {
  auto hv = make_credit_hv();
  hv::Domain& dom = hv->create_domain("VM1", 2 * kTestGB, 1,
                                  numa::PlacementPolicy::kFillFirst, 0);
  wl::SpecApp app(*hv, dom, dom.vcpu(0), "povray", 0.001);
  sim::Time finished_at;
  app.thread().add_on_finish([&](sim::Time t) { finished_at = t; });
  hv->start();
  app.start();
  hv->engine().run_until(sim::Time::sec(60));
  EXPECT_TRUE(app.finished());
  EXPECT_GT(app.runtime(), sim::Time::zero());
  EXPECT_DOUBLE_EQ(app.thread().progress(), 1.0);
  EXPECT_EQ(finished_at, app.finish_time());
}

// ----------------------------------------------------------------- NPB ----

TEST(Npb, ThreadsFinishTogetherThroughBarriers) {
  auto hv = make_credit_hv();
  hv::Domain& dom = hv->create_domain("VM1", 4 * kTestGB, 4,
                                  numa::PlacementPolicy::kFillFirst, 0);
  NpbApp::Config cfg;
  cfg.profile = "lu";
  cfg.instr_scale = 0.01;
  auto vcpus = test::domain_vcpus(dom);
  NpbApp app(*hv, dom, cfg, vcpus);
  hv->start();
  app.start();
  hv->engine().run_until(sim::Time::sec(120));
  EXPECT_TRUE(app.finished());
  EXPECT_GT(app.barrier_releases(), 0u);
  for (int i = 0; i < app.num_threads(); ++i) {
    EXPECT_TRUE(app.thread(i).finished());
  }
}

TEST(Npb, RequiresEnoughVcpus) {
  auto hv = make_credit_hv();
  hv::Domain& dom = hv->create_domain("VM1", 1 * kTestGB, 2,
                                  numa::PlacementPolicy::kFillFirst, 0);
  NpbApp::Config cfg;
  cfg.threads = 4;
  auto vcpus = test::domain_vcpus(dom);
  EXPECT_THROW(NpbApp(*hv, dom, cfg, vcpus), std::invalid_argument);
}

// -------------------------------------------------------------- Hungry ----

TEST(Hungry, NeverFinishesAndEatsCpu) {
  auto hv = make_credit_hv();
  hv::Domain& dom = hv->create_domain("VM3", 1 * kTestGB, 4,
                                  numa::PlacementPolicy::kFillFirst, 0);
  auto vcpus = test::domain_vcpus(dom);
  HungryLoops hungry(*hv, dom, vcpus);
  hv->start();
  hungry.start();
  hv->engine().run_until(sim::Time::sec(1));
  for (int i = 0; i < hungry.count(); ++i) {
    EXPECT_FALSE(hungry.thread(i).finished());
    EXPECT_GT(hungry.thread(i).executed_instructions(), 1e8);
  }
}

// ------------------------------------------------------- RequestServer ----

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hv_ = make_credit_hv();
    dom_ = &hv_->create_domain("VM1", 8 * kTestGB, 8,
                               numa::PlacementPolicy::kFillFirst, 0);
    vcpus_ = test::domain_vcpus(*dom_);
  }
  std::unique_ptr<hv::Hypervisor> hv_;
  hv::Domain* dom_ = nullptr;
  std::vector<hv::Vcpu*> vcpus_;
};

TEST_F(ServerTest, ServesSubmittedRequests) {
  RequestServer server(*hv_, *dom_, memcached_server_config("mc"), vcpus_);
  std::uint64_t notified = 0;
  server.on_served = [&](int, int n, sim::Time) { notified += static_cast<std::uint64_t>(n); };
  hv_->start();
  server.submit(100);
  hv_->engine().run_until(sim::Time::sec(5));
  EXPECT_EQ(server.served(), 100u);
  EXPECT_EQ(notified, 100u);
  EXPECT_EQ(server.queued(), 0);
}

TEST_F(ServerTest, WorkersBlockWhenIdle) {
  RequestServer server(*hv_, *dom_, memcached_server_config("mc"), vcpus_);
  hv_->start();
  server.submit(8);
  hv_->engine().run_until(sim::Time::sec(2));
  for (std::size_t i = 0; i < dom_->num_vcpus(); ++i) {
    EXPECT_EQ(dom_->vcpu(i).state, hv::VcpuState::kBlocked);
  }
}

TEST_F(ServerTest, TracksRequestLatency) {
  RequestServer server(*hv_, *dom_, memcached_server_config("mc"), vcpus_);
  hv_->start();
  server.submit(200);
  hv_->engine().run_until(sim::Time::sec(5));
  ASSERT_EQ(server.served(), 200u);
  const stats::LatencyHistogram& lat = server.latency_hist();
  EXPECT_EQ(lat.count(), 200u);
  // Service demand is 150k instructions (~60 us); sojourn must be at least
  // that and bounded by the queueing of 200 requests over 8 workers.
  EXPECT_GT(lat.min_s(), 20e-6);
  EXPECT_LT(lat.percentile(99), 0.1);
  EXPECT_GE(lat.percentile(99), lat.percentile(50));
}

TEST_F(ServerTest, LatencyGrowsWithQueueDepth) {
  auto measure_p99 = [&](int burst) {
    auto hv = make_credit_hv();
    hv::Domain& dom = hv->create_domain("VM1", 8 * kTestGB, 8,
                                        numa::PlacementPolicy::kFillFirst, 0);
    auto vcpus = test::domain_vcpus(dom);
    RequestServer server(*hv, dom, memcached_server_config("mc"), vcpus);
    hv->start();
    server.submit(burst);
    hv->engine().run_until(sim::Time::sec(30));
    EXPECT_EQ(server.served(), static_cast<std::uint64_t>(burst));
    return server.latency_hist().percentile(99);
  };
  EXPECT_GT(measure_p99(2000), measure_p99(16) * 3)
      << "a deep queue must show up in tail latency";
}

TEST_F(ServerTest, MemslapClosedLoopCompletes) {
  RequestServer server(*hv_, *dom_, memcached_server_config("mc"), vcpus_);
  MemslapClient::Config ccfg;
  ccfg.concurrency = 32;
  ccfg.total_ops = 5'000;
  MemslapClient client(*hv_, ccfg, {&server});
  hv_->start();
  client.start();
  hv_->engine().run_until(sim::Time::sec(60));
  EXPECT_TRUE(client.finished());
  EXPECT_GE(client.completed(), ccfg.total_ops);
  EXPECT_GT(client.throughput_ops_per_s(), 0.0);
}

TEST_F(ServerTest, HigherConcurrencyIsNotSlower) {
  // With idle capacity, more outstanding requests => more parallelism.
  auto measure = [&](int concurrency) {
    auto hv = make_credit_hv();
    hv::Domain& dom = hv->create_domain("VM1", 8 * kTestGB, 8,
                                    numa::PlacementPolicy::kFillFirst, 0);
    auto vcpus = test::domain_vcpus(dom);
    RequestServer server(*hv, dom, memcached_server_config("mc"), vcpus);
    MemslapClient::Config ccfg;
    ccfg.concurrency = concurrency;
    ccfg.total_ops = 4'000;
    MemslapClient client(*hv, ccfg, {&server});
    hv->start();
    client.start();
    hv->engine().run_until(sim::Time::sec(120));
    EXPECT_TRUE(client.finished());
    return client.runtime().to_seconds();
  };
  EXPECT_LT(measure(64), measure(2));
}

// --------------------------------------------------------------- Redis ----

TEST(Redis, PairedWorkloadCompletes) {
  auto hv = make_credit_hv();
  hv::Domain& servers = hv->create_domain("VM1", 8 * kTestGB, 8,
                                      numa::PlacementPolicy::kFillFirst, 0);
  hv::Domain& clients = hv->create_domain("VM2", 4 * kTestGB, 8,
                                      numa::PlacementPolicy::kFillFirst, 1);
  RedisWorkload::Config cfg;
  cfg.total_requests = 20'000;
  cfg.connections = 2000;
  auto server_vcpus = test::domain_vcpus(servers);
  auto client_vcpus = test::domain_vcpus(clients);
  RedisWorkload redis(*hv, servers, clients, cfg, server_vcpus, client_vcpus);
  hv->start();
  redis.start();
  hv->engine().run_until(sim::Time::sec(120));
  EXPECT_TRUE(redis.finished());
  EXPECT_GE(redis.completed(), cfg.total_requests / RedisWorkload::kPairs * RedisWorkload::kPairs);
  EXPECT_GT(redis.throughput_rps(), 0.0);
}

TEST(Redis, MoreConnectionsMeanSlowerService) {
  auto measure = [&](int connections) {
    auto hv = make_credit_hv();
    hv::Domain& servers = hv->create_domain("VM1", 8 * kTestGB, 8,
                                        numa::PlacementPolicy::kFillFirst, 0);
    hv::Domain& clients = hv->create_domain("VM2", 4 * kTestGB, 8,
                                        numa::PlacementPolicy::kFillFirst, 1);
    RedisWorkload::Config cfg;
    cfg.total_requests = 20'000;
    cfg.connections = connections;
    auto sv = test::domain_vcpus(servers);
    auto cv = test::domain_vcpus(clients);
    RedisWorkload redis(*hv, servers, clients, cfg, sv, cv);
    hv->start();
    redis.start();
    hv->engine().run_until(sim::Time::sec(300));
    EXPECT_TRUE(redis.finished());
    return redis.throughput_rps();
  };
  EXPECT_GT(measure(2000), measure(10000));
}

}  // namespace
}  // namespace vprobe::wl
