#include "workload/redis.hpp"

#include <algorithm>
#include <stdexcept>

namespace vprobe::wl {
namespace {

/// Extra per-request instructions per parallel connection (event-loop scan,
/// fd bookkeeping).
constexpr double kConnOverheadInstr = 6.0;
/// Client-side processing per completed request.
constexpr double kClientInstrPerRequest = 8e3;

}  // namespace

RedisWorkload::RedisWorkload(hv::Hypervisor& hv, hv::Domain& server_domain,
                             hv::Domain& client_domain, Config config,
                             std::span<hv::Vcpu* const> server_vcpus,
                             std::span<hv::Vcpu* const> client_vcpus)
    : hv_(&hv), config_(config) {
  if (client_vcpus.size() < std::size_t{kPairs}) {
    throw std::invalid_argument("RedisWorkload: not enough client VCPUs");
  }

  RequestServer::Config scfg;
  scfg.profile = "redis";
  scfg.workers = kPairs;  // one single-threaded server per pair
  scfg.instr_per_request = config_.instr_per_request +
                           kConnOverheadInstr *
                               static_cast<double>(config_.connections);
  scfg.max_batch = config_.batch;
  scfg.name = "redis";
  server_ = std::make_unique<RequestServer>(hv, server_domain, scfg, server_vcpus);
  server_->on_served = [this](int worker, int n, sim::Time now) {
    handle_served(worker, n, now);
  };

  const AppProfile& client_prof = profile("client");
  pairs_.resize(std::size_t{kPairs});
  client_vcpus_.assign(client_vcpus.begin(), client_vcpus.begin() + kPairs);
  const std::uint64_t per_pair = config_.total_requests / std::uint64_t{kPairs};
  for (int i = 0; i < kPairs; ++i) {
    auto& pair = pairs_[static_cast<std::size_t>(i)];
    pair.budget = per_pair;
    ComputeThread::Init init;
    init.profile = &client_prof;
    init.memory = &client_domain.memory();
    init.region = client_domain.memory().alloc_region(client_prof.footprint_bytes);
    init.total_instructions = client_prof.default_instructions;
    init.burst_instructions = kClientInstrPerRequest;
    init.name = "redis-bench.t" + std::to_string(i);
    pair.client = std::make_unique<ClientThread>(std::move(init), this, i);
    pair.client->bind(hv, *client_vcpus_[static_cast<std::size_t>(i)]);
  }
}

std::uint64_t RedisWorkload::completed() const {
  std::uint64_t total = 0;
  for (const auto& p : pairs_) total += p.done;
  return total;
}

void RedisWorkload::start() {
  start_time_ = hv_->now();
  finish_time_ = start_time_;
  for (int i = 0; i < static_cast<int>(pairs_.size()); ++i) {
    // Initial outstanding window: bounded so batches stay coarse even at
    // 10,000 connections (beyond a few hundred outstanding the server is
    // saturated either way; extra connections only add per-request cost).
    auto& pair = pairs_[static_cast<std::size_t>(i)];
    const std::int64_t window = std::min<std::int64_t>(
        {static_cast<std::int64_t>(config_.connections),
         static_cast<std::int64_t>(pair.budget),
         static_cast<std::int64_t>(8 * config_.batch)});
    issue(i, window);
  }
}

void RedisWorkload::issue(int pair_idx, std::int64_t n) {
  auto& pair = pairs_[static_cast<std::size_t>(pair_idx)];
  const std::int64_t can = static_cast<std::int64_t>(pair.budget - pair.issued);
  n = std::min(n, can);
  if (n <= 0) return;
  pair.issued += static_cast<std::uint64_t>(n);
  server_->submit_to(pair_idx, static_cast<int>(n));
}

void RedisWorkload::handle_served(int worker, int n, sim::Time now) {
  auto& pair = pairs_[static_cast<std::size_t>(worker)];
  pair.done += static_cast<std::uint64_t>(n);
  pair.to_resubmit += n;

  if (!pair.finished && pair.done >= pair.budget) {
    pair.finished = true;
    ++finished_pairs_;
    if (finished()) finish_time_ = now;
  }

  // Hand the completions to the benchmark thread for client-side processing
  // (it resubmits once processed).  Only kick it when parked.
  hv::Vcpu* cv = pair.client->vcpu();
  if (cv->state == hv::VcpuState::kBlocked && pair.to_resubmit > 0) {
    pair.processing = pair.to_resubmit;
    pair.to_resubmit = 0;
    pair.client->begin_processing(static_cast<double>(pair.processing) *
                                  kClientInstrPerRequest);
    hv_->wake(*cv);
  }
}

hv::Outcome RedisWorkload::client_processed(int pair_idx, sim::Time now) {
  (void)now;
  auto& pair = pairs_[static_cast<std::size_t>(pair_idx)];
  issue(pair_idx, pair.processing);
  pair.processing = 0;
  if (pair.to_resubmit > 0) {
    pair.processing = pair.to_resubmit;
    pair.to_resubmit = 0;
    pair.client->begin_processing(static_cast<double>(pair.processing) *
                                  kClientInstrPerRequest);
    return {hv::OutcomeKind::kContinue};
  }
  return {hv::OutcomeKind::kBlockUntilWake};
}

}  // namespace vprobe::wl
