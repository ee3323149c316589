// Redis workload model (Section V-B4).
//
// Four single-threaded redis servers run in VM1, four redis-benchmark tools
// in VM2, paired one-to-one.  The benchmark tools are real guest threads
// (they consume VM2's CPU, unlike memslap): each keeps a window of request
// batches outstanding at its server, does a little client-side processing
// per completed batch, and resubmits.  The parallel-connection count (the
// paper sweeps 2,000..10,000) affects both the outstanding window and the
// per-request service demand — each connection adds event-loop and
// bookkeeping work to the single-threaded server, which is why the paper's
// measured throughput falls as connections grow.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "workload/kv_server.hpp"

namespace vprobe::wl {

class RedisWorkload {
 public:
  static constexpr int kPairs = 4;  ///< server/benchmark pairs

  struct Config {
    int connections = 2000;             ///< parallel connections per tool
    std::uint64_t total_requests = 400'000;  ///< summed over pairs
    double instr_per_request = 70e3;    ///< base GET service demand
    int batch = 64;                     ///< requests per client<->server hop
  };

  RedisWorkload(hv::Hypervisor& hv, hv::Domain& server_domain,
                hv::Domain& client_domain, Config config,
                std::span<hv::Vcpu* const> server_vcpus,
                std::span<hv::Vcpu* const> client_vcpus);

  void start();

  bool finished() const { return finished_pairs_ == static_cast<int>(pairs_.size()); }
  std::uint64_t completed() const;
  sim::Time start_time() const { return start_time_; }
  sim::Time finish_time() const { return finish_time_; }
  sim::Time runtime() const { return finish_time_ - start_time_; }
  double throughput_rps() const {
    const double s = runtime().to_seconds();
    return s > 0 ? static_cast<double>(completed()) / s : 0.0;
  }

  RequestServer& server() { return *server_; }

 private:
  class ClientThread;
  struct Pair {
    std::unique_ptr<ClientThread> client;
    std::uint64_t budget = 0;       ///< requests this pair must complete
    std::uint64_t issued = 0;
    std::uint64_t done = 0;
    std::int64_t to_resubmit = 0;   ///< completions awaiting client work
    std::int64_t processing = 0;    ///< completions the client is working on
    bool finished = false;
  };

  class ClientThread : public ComputeThread {
   public:
    ClientThread(Init init, RedisWorkload* owner, int pair)
        : ComputeThread(std::move(init)), owner_(owner), pair_(pair) {}

    void begin_processing(double instructions) { set_burst_budget(instructions); }

   protected:
    hv::Outcome on_burst_end(sim::Time now) override {
      return owner_->client_processed(pair_, now);
    }

   private:
    RedisWorkload* owner_;
    int pair_;
  };

  void handle_served(int worker, int n, sim::Time now);
  hv::Outcome client_processed(int pair, sim::Time now);
  void issue(int pair, std::int64_t n);

  hv::Hypervisor* hv_;
  Config config_;
  std::unique_ptr<RequestServer> server_;  ///< one worker per pair
  std::vector<Pair> pairs_;
  std::vector<hv::Vcpu*> client_vcpus_;
  int finished_pairs_ = 0;
  sim::Time start_time_;
  sim::Time finish_time_;
};

}  // namespace vprobe::wl
