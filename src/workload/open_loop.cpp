#include "workload/open_loop.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace vprobe::wl {

OpenLoopClient::OpenLoopClient(sim::Engine& engine, Config config,
                               std::vector<RequestServer*> servers, int stream)
    : engine_(&engine),
      cfg_(std::move(config)),
      servers_(std::move(servers)),
      rng_(sim::Rng::child_seed(cfg_.seed, kStreamIndex + stream)) {
  if (servers_.empty()) {
    throw std::invalid_argument("OpenLoopClient: no servers");
  }
  cfg_.diurnal_amp = std::clamp(cfg_.diurnal_amp, 0.0, 0.95);
  if (cfg_.spike_x < 0.0) cfg_.spike_x = 0.0;
  if (cfg_.block < 1) cfg_.block = 1;
}

OpenLoopClient::~OpenLoopClient() { next_.cancel(); }

double OpenLoopClient::rate_at(double t) const {
  double rate = cfg_.rps;
  if (rate <= 0.0) return 0.0;
  if (cfg_.spike_at_s >= 0.0 && t >= cfg_.spike_at_s &&
      t < cfg_.spike_until_s) {
    rate *= cfg_.spike_x;
  }
  if (cfg_.diurnal_period_s > 0.0 && cfg_.diurnal_amp > 0.0) {
    rate *= 1.0 + cfg_.diurnal_amp *
                      std::sin(2.0 * std::numbers::pi * t /
                               cfg_.diurnal_period_s);
  }
  return rate > 0.0 ? rate : 0.0;
}

void OpenLoopClient::start() {
  if (running_) return;
  running_ = true;
  const sim::Time from =
      std::max(engine_->now(), sim::Time::seconds(cfg_.start_s));
  if (!lazy_active()) {
    schedule_next(from);
    return;
  }
  extend_block(from);
  push_and_arm(0);
}

void OpenLoopClient::stop() {
  if (lazy_active() && running_) {
    const sim::Time now = engine_->now();
    // Projected arrivals at or before now happened: deliver them at their
    // true timestamps (pure bookkeeping — any worker parked since such a
    // time would already have materialized it, so no wake can fire here).
    std::size_t k = 0;
    while (k < block_.size() && block_[k].when <= now) ++k;
    // The eager client drew the gap of its one in-flight arrival and
    // discards it on stop; later gaps were never drawn — those raws return
    // to the spare pool so a restart continues the stream exactly.
    const std::size_t cut = std::min(block_.size(), k + 1);
    for (std::size_t j = block_.size(); j > cut; --j) {
      spare_.push_front(block_[j - 1].raw);
    }
    const std::size_t s = servers_.size();
    round_robin_ = (round_robin_ + s - (block_.size() - k) % s) % s;
    issued_base_ += k;
    block_.clear();
    parked_ = false;
    for (RequestServer* srv : servers_) {
      srv->absorb_future(now);
      srv->retract_future_after(now);
    }
  }
  running_ = false;
  next_.cancel();
}

void OpenLoopClient::set_rate(double rps) {
  cfg_.rps = rps;
  if (!running_) return;
  if (!lazy_active()) {
    if (!next_.pending() && rps > 0.0 &&
        (cfg_.max_requests == 0 || issued_ < cfg_.max_requests)) {
      schedule_next(engine_->now());
    }
    return;
  }
  reproject(engine_->now());
}

std::uint64_t OpenLoopClient::issued() const {
  if (!lazy_active()) return issued_;
  const sim::Time now = engine_->now();
  std::size_t k = block_.size();
  while (k > 0 && block_[k - 1].when > now) --k;
  return issued_base_ + k;
}

void OpenLoopClient::check_conservation() const {
  const sim::Time now = engine_->now();
  std::int64_t held = 0;
  for (const RequestServer* srv : servers_) {
    const auto served = static_cast<std::int64_t>(srv->served());
    const auto recorded = static_cast<std::int64_t>(srv->latency_hist().count());
    if (recorded != served) {
      throw std::logic_error("serving conservation: " + srv->name() +
                             " recorded " + std::to_string(recorded) +
                             " sojourns for " + std::to_string(served) +
                             " served requests");
    }
    const std::int64_t waiting = srv->queued() + srv->in_flight();
    if (srv->ledger_requests() != waiting) {
      throw std::logic_error("serving conservation: " + srv->name() +
                             " ledger holds " +
                             std::to_string(srv->ledger_requests()) +
                             " requests for " + std::to_string(waiting) +
                             " queued and in flight");
    }
    held += served + waiting + srv->projected_due(now);
  }
  if (static_cast<std::int64_t>(issued()) != held) {
    std::string breakdown;
    for (const RequestServer* srv : servers_) {
      breakdown += " " + srv->name() + "=" + std::to_string(srv->served()) +
                   "+" + std::to_string(srv->queued()) + "+" +
                   std::to_string(srv->in_flight()) + "+" +
                   std::to_string(srv->projected_due(now));
    }
    throw std::logic_error(
        "serving conservation: " + cfg_.name + " issued " +
        std::to_string(issued()) + " requests but its servers hold " +
        std::to_string(held) + " (served+queued+in flight+due:" + breakdown +
        ")");
  }
}

// ---- eager (per-arrival event) path ---------------------------------------

void OpenLoopClient::schedule_next(sim::Time from) {
  const double rate = rate_at(from.to_seconds());
  // Zero rate parks the chain without consuming a draw; set_rate() revives
  // it.  An inert (rps = 0) client therefore never touches its RNG, its
  // engine queue, or any server — the basis of the stream-independence
  // golden test.
  if (rate <= 0.0) return;
  const double gap = rng_.exponential(rate);
  next_ = engine_->schedule_at(from + sim::Time::seconds(gap),
                               [this] { arrive(); });
}

void OpenLoopClient::arrive() {
  if (!running_) return;
  ++arrival_events_;
  std::size_t target;
  if (cfg_.balance == Config::Balance::kP2c) {
    target = pick_p2c();
  } else {
    target = round_robin_;
    round_robin_ = (round_robin_ + 1) % servers_.size();
  }
  servers_[target]->submit(1);
  ++issued_;
  if (cfg_.max_requests != 0 && issued_ >= cfg_.max_requests) return;
  schedule_next(engine_->now());
}

std::size_t OpenLoopClient::pick_p2c() {
  // Power-of-two-choices on the client's own stream: sample two servers,
  // dispatch to the shorter queue, deterministic tie-break on index.
  const std::size_t a = rng_.pick_index(servers_.size());
  const std::size_t b = rng_.pick_index(servers_.size());
  const std::int64_t qa = servers_[a]->queued();
  const std::int64_t qb = servers_[b]->queued();
  if (qb < qa) return b;
  if (qa < qb) return a;
  return std::min(a, b);
}

// ---- lazy (pre-drawn block) path ------------------------------------------

void OpenLoopClient::extend_block(sim::Time base) {
  parked_ = false;
  const std::size_t first = block_.size();
  std::size_t n = static_cast<std::size_t>(cfg_.block) - first;
  if (cfg_.max_requests != 0) {
    const std::uint64_t used = issued_base_ + first;
    if (used >= cfg_.max_requests) return;
    n = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, cfg_.max_requests - used));
  }
  if (n == 0) return;  // block already full: nothing to draw, no rate read
  sim::Time prev = first == 0 ? base : block_.back().when;
  double rate = rate_at(prev.to_seconds());
  // Zero rate parks the chain without consuming a draw, exactly like the
  // eager schedule_next(); set_rate() revives it.
  if (rate <= 0.0) {
    parked_ = true;
    return;
  }
  // The eager gap is exp_transform(raw, rate) = -log(raw) / rate, drawn
  // one arrival at a time.  Three passes compute the same values with the
  // log off the time chain.  Pass 1: the raws, spares (retracted by an
  // earlier set_rate/stop) before fresh draws, so the raw sequence is
  // always the eager client's draw sequence.
  block_.resize(first + n);
  std::size_t i = first;
  for (; i < first + n && !spare_.empty(); ++i) {
    block_[i].raw = spare_.front();
    spare_.pop_front();
  }
  for (; i < first + n; ++i) block_[i].raw = rng_.draw_unit();
  // Pass 2: the logs, independent of one another.
  neg_logs_.resize(n);
  for (std::size_t j = 0; j < n; ++j) neg_logs_[j] = -std::log(block_[first + j].raw);
  // Pass 3: the time chain, each gap under the rate at its predecessor.
  const std::size_t s = servers_.size();
  for (std::size_t j = 0; j < n; ++j) {
    if (j > 0) rate = rate_at(prev.to_seconds());
    if (rate <= 0.0) {
      // Parked mid-block: the unused raws were never drawn in the eager
      // world, so they go back to the front of the spare pool in draw
      // order (the client's stream is private, so drawing them early is
      // invisible).
      for (std::size_t k = first + n; k > first + j; --k) {
        spare_.push_front(block_[k - 1].raw);
      }
      block_.resize(first + j);
      parked_ = true;
      return;
    }
    prev = prev + sim::Time::seconds(neg_logs_[j] / rate);
    Projected& p = block_[first + j];
    p.when = prev;
    p.server = static_cast<std::uint32_t>(round_robin_);
    round_robin_ = round_robin_ + 1 == s ? 0 : round_robin_ + 1;
  }
}

void OpenLoopClient::push_and_arm(std::size_t first) {
  for (std::size_t i = first; i < block_.size(); ++i) {
    servers_[block_[i].server]->submit_at(block_[i].when, 1);
  }
  next_.cancel();
  if (!block_.empty()) {
    next_ = engine_->schedule_at(block_.back().when,
                                 [this] { block_boundary(); });
  }
}

void OpenLoopClient::block_boundary() {
  ++arrival_events_;
  if (!running_ || block_.empty()) return;
  const sim::Time last = block_.back().when;
  issued_base_ += block_.size();
  block_.clear();
  if (parked_) return;  // the projection hit a zero rate at `last`
  if (cfg_.max_requests != 0 && issued_base_ >= cfg_.max_requests) return;
  extend_block(last);
  push_and_arm(0);
}

void OpenLoopClient::reproject(sim::Time now) {
  // Recompute the projection under the changed config, exactly as the
  // eager client would see it: arrivals at or before now happened; the
  // first projected arrival beyond now keeps its already-drawn gap (eager
  // drew it at that arrival's predecessor); every later gap is undrawn in
  // the eager world, so those raws return to the spare pool and are
  // re-transformed under the new rates.
  std::size_t k = 0;
  while (k < block_.size() && block_[k].when <= now) ++k;
  const bool chain_live = k < block_.size();
  const std::size_t keep = chain_live ? k + 1 : k;
  for (std::size_t j = block_.size(); j > keep; --j) {
    spare_.push_front(block_[j - 1].raw);
  }
  const std::size_t dropped = block_.size() - keep;
  const std::size_t s = servers_.size();
  round_robin_ = (round_robin_ + s - dropped % s) % s;
  block_.resize(keep);
  if (!chain_live) {
    // No in-flight arrival: the chain is parked (or exhausted).  Fold the
    // all-past block like its boundary event would, then revive from now —
    // matching the eager set_rate(), which draws the revival gap from now.
    issued_base_ += block_.size();
    block_.clear();
    next_.cancel();
    for (RequestServer* srv : servers_) srv->retract_future_after(now);
    if (cfg_.max_requests != 0 && issued_base_ >= cfg_.max_requests) return;
    extend_block(now);
    push_and_arm(0);
    return;
  }
  // Retract the dropped projections: the kept in-flight arrival bounds its
  // own server; no other server holds anything committed beyond now.
  const Projected beyond = block_.back();
  for (std::size_t i = 0; i < s; ++i) {
    servers_[i]->retract_future_after(
        i == beyond.server ? beyond.when : now);
  }
  const std::size_t first = block_.size();
  extend_block(beyond.when);
  push_and_arm(first);
}

}  // namespace vprobe::wl
