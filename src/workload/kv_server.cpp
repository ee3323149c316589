#include "workload/kv_server.hpp"

#include <algorithm>
#include <stdexcept>

namespace vprobe::wl {

RequestServer::RequestServer(hv::Hypervisor& hv, hv::Domain& domain,
                             Config config, std::span<hv::Vcpu* const> vcpus)
    : hv_(&hv),
      name_(std::move(config.name)),
      instr_per_request_(config.instr_per_request),
      max_batch_(config.max_batch) {
  if (config.workers < 1) throw std::invalid_argument("RequestServer: workers < 1");
  if (vcpus.size() < static_cast<std::size_t>(config.workers)) {
    throw std::invalid_argument("RequestServer: not enough VCPUs");
  }
  if (max_batch_ < 1) throw std::invalid_argument("RequestServer: max_batch < 1");
  const AppProfile& prof = profile(config.profile);
  vcpus_.assign(vcpus.begin(), vcpus.begin() + config.workers);
  pending_.assign(static_cast<std::size_t>(config.workers), 0);
  inflight_.assign(static_cast<std::size_t>(config.workers), 0);
  idle_workers_ = config.workers;
  ledgers_ = std::vector<ArrivalLedger>(static_cast<std::size_t>(config.workers));
  workers_.reserve(static_cast<std::size_t>(config.workers));
  for (int i = 0; i < config.workers; ++i) {
    ComputeThread::Init init;
    init.profile = &prof;
    init.memory = &domain.memory();
    init.region = domain.memory().alloc_region(prof.footprint_bytes);
    init.total_instructions = prof.default_instructions;  // effectively forever
    init.burst_instructions = instr_per_request_;         // replaced per batch
    init.name = name_ + ".w" + std::to_string(i);
    workers_.push_back(std::make_unique<Worker>(std::move(init), this, i));
    workers_.back()->bind(hv, *vcpus_[static_cast<std::size_t>(i)]);
  }
}

RequestServer::~RequestServer() { future_event_.cancel(); }

std::int64_t RequestServer::in_flight() const {
  std::int64_t total = 0;
  for (const int b : inflight_) total += b;
  return total;
}

std::int64_t RequestServer::projected_due(sim::Time upto) const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < future_.size() && future_[i].when <= upto; ++i) {
    total += future_[i].count;
  }
  return total;
}

std::int64_t RequestServer::ledger_requests() const {
  std::int64_t total = 0;
  for (const ArrivalLedger& l : ledgers_) total += l.requests();
  return total;
}

std::size_t RequestServer::ledger_bytes() const {
  std::size_t total = 0;
  for (const ArrivalLedger& l : ledgers_) total += l.bytes();
  return total;
}

void RequestServer::submit(int n) {
  if (n <= 0) return;
  absorb(hv_->now(), false);
  enqueue_rr(hv_->now(), n);
}

void RequestServer::submit_to(int worker, int n) {
  if (n <= 0) return;
  absorb(hv_->now(), false);
  const auto w = static_cast<std::size_t>(worker);
  pending_[w] += n;
  queued_ += n;
  ledgers_[w].push(hv_->now(), n);
  kick(worker);
}

void RequestServer::enqueue_rr(sim::Time when, int n) {
  const int nw = workers();
  queued_ += n;
  if (n == 1) {
    // One projected arrival (the lazy path's common case): one record and
    // one kick, exactly the general loop's first step.
    const int w = round_robin_;
    round_robin_ = w + 1 == nw ? 0 : w + 1;
    const auto wi = static_cast<std::size_t>(w);
    ledgers_[wi].push(when, 1);
    pending_[wi] += 1;
    kick(w);
    return;
  }
  const int start = round_robin_;
  round_robin_ = (start + n) % nw;
  // Worker visited at step s takes the requests the one-at-a-time loop
  // would have dealt it, merged into a single arrival record.
  const int full = n / nw;
  const int extra = n % nw;
  for (int step = 0; step < nw; ++step) {
    const int share = full + (step < extra ? 1 : 0);
    if (share == 0) break;
    const auto w = static_cast<std::size_t>((start + step) % nw);
    ledgers_[w].push(when, share);
    // The kick must see the pending count the per-request loop had when it
    // first touched this worker: a parked worker starts a batch of one,
    // the rest of the share lands as bookkeeping behind the started burst.
    pending_[w] += 1;
    kick(static_cast<int>(w));
    pending_[w] += share - 1;
  }
}

void RequestServer::submit_at(sim::Time when, int n) {
  if (n <= 0) return;
  // The projection stays time-ordered by contract (one client, pushing in
  // non-decreasing time order), so appending is the whole insert.
  if (!future_.empty() && when < future_.back().when) {
    throw std::logic_error(name_ + ": submit_at went back in time");
  }
  future_.push_back({when, n});
  update_future_event();
}

void RequestServer::absorb_future(sim::Time upto) { absorb(upto, false); }

void RequestServer::retract_future_after(sim::Time cut) {
  while (!future_.empty() && future_.back().when > cut) future_.pop_back();
}

void RequestServer::absorb(sim::Time upto, bool via_event) {
  bool first = via_event;
  while (!future_.empty() && future_.front().when <= upto) {
    const auto [when, n] = future_.front();
    future_.pop_front();
    enqueue_rr(when, n);
    // The first request delivered by a materialization event rides that
    // event; everything else arrives without an engine event of its own.
    arrivals_coalesced_ += static_cast<std::uint64_t>(n) - (first ? 1 : 0);
    first = false;
  }
}

bool RequestServer::any_worker_parked() const {
  if (idle_workers_ == 0) return false;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (inflight_[w] == 0 && !workers_[w]->stopped() &&
        vcpus_[w]->state == hv::VcpuState::kBlocked) {
      return true;
    }
  }
  return false;
}

void RequestServer::update_future_event() {
  if (!any_worker_parked()) return;
  arm_future_event();
}

void RequestServer::arm_future_event() {
  if (future_.empty()) return;
  const sim::Time when = std::max(future_.front().when, hv_->now());
  if (future_event_.pending() && future_event_when_ <= when) return;
  future_event_.cancel();
  future_event_when_ = when;
  future_event_ = hv_->engine().schedule_at(when, [this] {
    ++arrival_events_;
    absorb(hv_->now(), true);
    update_future_event();
  });
}

void RequestServer::kick(int worker) {
  const auto w = static_cast<std::size_t>(worker);
  // Only start a batch when the worker is parked: no in-flight batch and its
  // VCPU blocked.  A busy worker picks pending work up at its batch end.
  if (inflight_[w] != 0) return;
  if (workers_[w]->stopped()) return;  // shutting down: leave it parked
  hv::Vcpu* v = vcpus_[w];
  if (v->state != hv::VcpuState::kBlocked) return;
  if (pending_[w] <= 0) return;
  begin_batch(w);
  hv_->wake(*v);
}

void RequestServer::begin_batch(std::size_t w) {
  const int batch = static_cast<int>(
      std::min<std::int64_t>(pending_[w], max_batch_));
  pending_[w] -= batch;
  queued_ -= batch;
  inflight_[w] = batch;
  --idle_workers_;
  workers_[w]->begin_batch(batch * instr_per_request_);
}

hv::Outcome RequestServer::worker_batch_done(int worker, sim::Time now) {
  const auto w = static_cast<std::size_t>(worker);
  // Deliver projected arrivals due by now BEFORE settling this batch: the
  // kick inside delivery no-ops on this worker (its burst is still marked
  // in flight), and the refill below then sees exactly the pending count
  // the per-arrival event stream would have accumulated.
  absorb(now, false);
  const int done = inflight_[w];
  if (done != 0) ++idle_workers_;
  inflight_[w] = 0;
  served_ += static_cast<std::uint64_t>(done);
  // Latency: drain arrival records in FIFO order.  The histogram weights by
  // request count so partially-drained batches are accounted per request;
  // pure bookkeeping, no events or RNG, so recording here cannot move any
  // trace digest.
  ledgers_[w].consume(done, [this, now](sim::Time when, int used) {
    const double sojourn = (now - when).to_seconds();
    latency_hist_.record(sojourn, static_cast<std::uint64_t>(used));
    if (slo_threshold_s_ > 0.0 && sojourn > slo_threshold_s_) {
      slo_violations_ += static_cast<std::uint64_t>(used);
    }
  });
  if (on_served && done > 0) on_served(worker, done, now);

  // The callback may have refilled our queue (closed-loop clients do).
  if (pending_[w] > 0) {
    begin_batch(w);
    return {hv::OutcomeKind::kContinue};
  }
  // This worker is about to park (its VCPU blocks once we return, so the
  // parked predicate would not see it yet): materialize the earliest
  // projected arrival as a real event so its wake fires at exactly the
  // time a per-arrival event stream would produce.
  arm_future_event();
  return {hv::OutcomeKind::kBlockUntilWake};
}

}  // namespace vprobe::wl
