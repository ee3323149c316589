// Generic in-memory key-value request server (substrate for the Memcached
// and Redis workload models).
//
// The server owns `workers` guest threads, each bound to a VCPU.  Clients
// enqueue requests with submit(); a worker coalesces up to `max_batch`
// pending requests into one execution burst (batch ~= a few ms, so the
// simulation stays event-light even at tens of thousands of requests per
// second), blocks when its queue drains, and is woken by the next submit.
// The block/wake churn this produces is exactly the scheduler workload the
// paper's Figures 6 and 7 stress.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "stats/histogram.hpp"
#include "workload/app.hpp"
#include "workload/arrival_ledger.hpp"

namespace vprobe::wl {

class RequestServer {
 public:
  struct Config {
    std::string profile = "memcached";  ///< worker memory behaviour
    int workers = 8;
    double instr_per_request = 150e3;   ///< service demand per request
    int max_batch = 32;                 ///< requests coalesced per burst
    std::string name = "server";
  };

  RequestServer(hv::Hypervisor& hv, hv::Domain& domain, Config config,
                std::span<hv::Vcpu* const> vcpus);
  ~RequestServer();

  RequestServer(const RequestServer&) = delete;
  RequestServer& operator=(const RequestServer&) = delete;

  /// Enqueue `n` requests, spread round-robin over the workers.
  void submit(int n);

  /// Enqueue `n` requests on a specific worker (used by paired clients).
  void submit_to(int worker, int n);

  /// Lazy arrival delivery (docs/SERVING.md): record a projected future
  /// arrival of `n` requests at absolute time `when` without creating an
  /// engine event.  Projections are delivered ("absorbed") with their true
  /// timestamps at the next coupling point — a direct submit, a worker
  /// batch completion, or the materialization event this server arms while
  /// any worker is parked — so wakes, sojourns, and SLO counts land at
  /// exactly the times a per-arrival event stream would produce.  Requires
  /// a single pushing client whose `when`s are non-decreasing per server;
  /// an earlier `when` than the last projection throws std::logic_error.
  void submit_at(sim::Time when, int n);

  /// Deliver every projected arrival due at or before `upto` (the pushing
  /// client's stop()/flush path; `upto` must not exceed the current time).
  void absorb_future(sim::Time upto);

  /// Drop projected arrivals strictly later than `cut` (the pushing
  /// client's set_rate/stop retraction of re-drawn gaps).
  void retract_future_after(sim::Time cut);

  /// Clean shutdown before domain destruction: workers retire at their next
  /// batch boundary and ignore further submits (stopped threads never kick).
  void stop() {
    for (auto& w : workers_) w->stop();
  }

  /// Fired every time a worker completes a batch.
  std::function<void(int worker, int served, sim::Time now)> on_served;

  std::uint64_t served() const { return served_; }
  /// Requests waiting for a batch (delivered, not yet in flight).
  std::int64_t queued() const { return queued_; }
  /// Requests covered by the workers' current bursts.
  std::int64_t in_flight() const;
  /// Projected requests due at or before `upto` and not yet delivered.
  std::int64_t projected_due(sim::Time upto) const;
  /// Requests held in the arrival ledgers (queued + in flight when the
  /// bookkeeping is consistent; see OpenLoopClient::check_conservation).
  std::int64_t ledger_requests() const;
  /// Bytes of ledger chunks the workers hold (docs/SERVING.md).
  std::size_t ledger_bytes() const;
  int workers() const { return static_cast<int>(workers_.size()); }
  const std::string& name() const { return name_; }

  double instr_per_request() const { return instr_per_request_; }

  /// Request sojourn times (submit -> batch completion), in seconds — the
  /// latency distribution a load tester would report alongside throughput.
  /// A fixed-memory log-bucketed histogram, weighted by request count (one
  /// unit per request, so partial batch completions are accounted per
  /// request, not per sample).
  const stats::LatencyHistogram& latency_hist() const { return latency_hist_; }

  /// SLO accounting: requests slower than the threshold are counted exactly
  /// at record time.  threshold <= 0 disables counting (the default).
  void set_slo_threshold(double seconds) { slo_threshold_s_ = seconds; }
  std::uint64_t slo_violations() const { return slo_violations_; }

  /// Arrival-path accounting (docs/SERVING.md): engine events this server
  /// paid to materialize projected arrivals, and requests delivered without
  /// an engine event of their own (absorbed at an existing coupling point).
  std::uint64_t arrival_events() const { return arrival_events_; }
  std::uint64_t arrivals_coalesced() const { return arrivals_coalesced_; }

 private:
  /// Tests corrupt the counters below through this, to prove
  /// OpenLoopClient::check_conservation catches it (tests/serving_test.cpp).
  friend struct RequestServerFaults;

  class Worker : public ComputeThread {
   public:
    Worker(Init init, RequestServer* server, int index)
        : ComputeThread(std::move(init)), server_(server), index_(index) {}

    void begin_batch(double instructions) { set_burst_budget(instructions); }

   protected:
    hv::Outcome on_burst_end(sim::Time now) override {
      return server_->worker_batch_done(index_, now);
    }

   private:
    RequestServer* server_;
    int index_;
  };

  hv::Outcome worker_batch_done(int worker, sim::Time now);

  /// Start a new batch on an idle worker if it has pending requests.
  void kick(int worker);

  /// Append `n` requests at timestamp `when`, round-robin across workers in
  /// O(workers): one arrival record per worker visited, kicks in the same
  /// order as the one-at-a-time loop this replaces.
  void enqueue_rr(sim::Time when, int n);

  /// Deliver projected arrivals due at or before `upto`.  `via_event` marks
  /// delivery from the materialization event (the first request then rides
  /// that event; only the rest count as coalesced).
  void absorb(sim::Time upto, bool via_event);

  /// Start the next batch of up to max_batch pending requests on `w`.
  void begin_batch(std::size_t w);

  bool any_worker_parked() const;

  /// (Re)arm the materialization event at the earliest projected arrival
  /// while any worker is parked; stale later events are left to fire and
  /// reschedule themselves harmlessly.
  void update_future_event();

  /// update_future_event() without the parked check (a worker parking
  /// inside worker_batch_done is not yet kBlocked when it arms this).
  void arm_future_event();

  hv::Hypervisor* hv_;
  std::string name_;
  double instr_per_request_;
  int max_batch_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<hv::Vcpu*> vcpus_;
  std::vector<std::int64_t> pending_;
  std::vector<int> inflight_;   ///< requests covered by the current burst
  std::int64_t queued_ = 0;     ///< sum of pending_
  /// Workers with no burst in flight: a parked worker is one of them, so
  /// any_worker_parked() is false without a scan while this is zero.
  int idle_workers_ = 0;
  /// Per-worker FIFO of (submit time, request count) for latency tracking.
  std::vector<ArrivalLedger> ledgers_;
  stats::LatencyHistogram latency_hist_;
  double slo_threshold_s_ = 0.0;
  std::uint64_t slo_violations_ = 0;
  std::uint64_t served_ = 0;
  int round_robin_ = 0;
  /// Projected (undelivered) arrivals, time-ordered.
  ProjectionRing future_;
  sim::EventHandle future_event_;
  sim::Time future_event_when_ = sim::Time::zero();
  std::uint64_t arrival_events_ = 0;
  std::uint64_t arrivals_coalesced_ = 0;
};

}  // namespace vprobe::wl
