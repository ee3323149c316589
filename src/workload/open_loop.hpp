// Open-loop load generator for the request-server workloads.
//
// A closed-loop client (MemslapClient) re-issues a request only after the
// previous one completes, so offered load collapses to match capacity and
// queueing delay is invisible.  This client is open-loop: arrivals come from
// an external Poisson process whose rate does not care how the server is
// doing, so when the fleet saturates, requests queue and sojourn times blow
// up — exactly the tail-latency regime where scheduler placement matters.
//
// The arrival rate can be modulated deterministically in time:
//   rate(t) = rps * spike(t) * (1 + diurnal_amp * sin(2*pi*t / period))
// where spike(t) = spike_x inside [spike_at, spike_until) and 1 elsewhere.
// After each arrival at time t, the gap to the next arrival is drawn as
// Exp(rate(t)) — a piecewise-Poisson process.
//
// Lazy arrival delivery (the default; docs/SERVING.md): instead of one
// engine event per arrival, the client pre-draws a block of K gaps — the
// guarded raw uniforms are kept so a mid-block set_rate() can re-transform
// the undrawn tail under the new rate, preserving both the stream position
// and the exact gap values an eager client would compute — projects the
// arrivals onto their target servers with submit_at(), and schedules a
// single event at the block boundary.  During saturation an arrival is pure
// bookkeeping (every target worker is busy), so servers absorb projections
// at existing coupling points; a server with a parked worker materializes
// its earliest projection as a real event, so wakes fire at exactly the
// eager times and no trace digest can move.  --no-lazy-arrivals restores
// the per-arrival event path (bit-identical, the escape hatch tests use).
//
// Determinism: the client draws from its own sim::Rng child stream
// (child_seed(seed, kStreamIndex)), disjoint from the per-host and churn
// streams, so constructing a client — or running one with rps = 0 — cannot
// perturb any other component's draws or any existing golden digest.
//
// PDES: in cluster mode, construct with the *control* engine
// (Cluster::engine()), exactly like the ChurnDriver: arrivals and block
// boundaries are control events, and server state is touched only at a
// synchronizer coupling point, so sharded runs stay bit-identical to
// serial.  Server-side materialization events live on the server's own
// (shard) engine, so they never cross a shard boundary.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "workload/kv_server.hpp"

namespace vprobe::wl {

class OpenLoopClient {
 public:
  struct Config {
    double rps = 0.0;        ///< base arrival rate; <= 0 leaves the client inert
    double start_s = 0.0;    ///< arrivals begin at this simulated time
    std::uint64_t seed = 1;  ///< run seed; mixed through child_seed internally
    std::uint64_t max_requests = 0;  ///< 0 = unbounded (horizon-limited)
    double spike_at_s = -1.0;        ///< spike window start (< 0: no spike)
    double spike_until_s = -1.0;     ///< spike window end (exclusive)
    double spike_x = 1.0;            ///< rate multiplier inside the window
    double diurnal_period_s = 0.0;   ///< 0 = no diurnal modulation
    double diurnal_amp = 0.0;        ///< clamped to [0, 0.95] so rate stays > 0
    /// Server pick per arrival: round-robin, or deterministic
    /// power-of-two-choices on the client's own stream (kP2c dispatches to
    /// the less-loaded of two sampled servers; it must read queue depths at
    /// arrival time, so it always uses the per-arrival event path).
    enum class Balance { kRoundRobin, kP2c };
    Balance balance = Balance::kRoundRobin;
    bool lazy = true;  ///< pre-drawn blocks + lazy delivery; false = one
                       ///  engine event per arrival (bit-identical)
    int block = 64;    ///< lazy block size (tests shrink it to stress edges)
    std::string name = "openloop";
  };

  /// child_seed stream index for the first client; clients constructed for
  /// the same run must use distinct `stream` values (0, 1, ...).  Chosen
  /// far above any realistic host count so per-host streams never collide.
  static constexpr int kStreamIndex = 64;

  OpenLoopClient(sim::Engine& engine, Config config,
                 std::vector<RequestServer*> servers, int stream = 0);
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Arm the arrival process (idempotent).  With rps <= 0 this is a no-op
  /// beyond marking the client running; set_rate() can start arrivals later.
  void start();

  /// Stop issuing (idempotent).  Projected arrivals due by now are
  /// delivered (they happened); the undrawn tail is retracted and its raw
  /// uniforms retained, so a later restart continues the stream exactly
  /// where an eager client would.
  void stop();

  /// Change the base arrival rate mid-run (fuzzers and rate traces poke
  /// this).  Revives a parked client when raising the rate above zero.
  void set_rate(double rps);

  /// Effective arrival rate at simulated time t (seconds).
  double rate_at(double t) const;

  /// Arrivals that have occurred by the engine's current time.
  std::uint64_t issued() const;

  /// Serving conservation (docs/SERVING.md): every issued arrival is
  /// served, queued, in flight, or projected and due but not yet delivered;
  /// each server's histogram counts exactly its served requests and its
  /// ledgers hold exactly its queued and in-flight ones.  Throws
  /// std::logic_error naming the server (or the client) on a mismatch.
  /// Assumes this client is the only source of the servers' requests.
  void check_conservation() const;

  /// Engine events the arrival path has paid on the client's engine: one
  /// per arrival on the eager path, one per block boundary on the lazy
  /// path (server-side materialization events are counted by the servers).
  std::uint64_t arrival_events() const { return arrival_events_; }

  bool running() const { return running_; }
  const std::string& name() const { return cfg_.name; }
  const Config& config() const { return cfg_; }

 private:
  /// One projected arrival: the guarded raw uniform behind its gap (kept
  /// so a rate change can re-transform it), its absolute time, and the
  /// server it targets.
  struct Projected {
    double raw;
    sim::Time when;
    std::uint32_t server;
  };

  bool lazy_active() const {
    return cfg_.lazy && cfg_.balance == Config::Balance::kRoundRobin;
  }

  // Eager (per-arrival event) path.
  void schedule_next(sim::Time from);
  void arrive();
  std::size_t pick_p2c();

  // Lazy (block) path.
  void extend_block(sim::Time base);
  void push_and_arm(std::size_t first);
  void block_boundary();
  void reproject(sim::Time now);

  sim::Engine* engine_;
  Config cfg_;
  std::vector<RequestServer*> servers_;
  sim::Rng rng_;
  sim::EventHandle next_;
  std::uint64_t issued_ = 0;  ///< eager path only; lazy derives from block_
  std::size_t round_robin_ = 0;
  bool running_ = false;
  std::vector<Projected> block_;  ///< current block, time-ordered
  std::deque<double> spare_;      ///< retracted raws, original draw order
  std::vector<double> neg_logs_;  ///< extend_block scratch: -log(raw)
  std::uint64_t issued_base_ = 0; ///< arrivals folded out of past blocks
  bool parked_ = false;           ///< projection stopped at a zero rate
  std::uint64_t arrival_events_ = 0;
};

}  // namespace vprobe::wl
