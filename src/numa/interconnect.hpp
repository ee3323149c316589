// Inter-node interconnect (QPI-like) model.
//
// Remote memory accesses cross a point-to-point link between the requesting
// node and the home node of the data.  Each ordered node pair shares the
// configured link bandwidth (links * GT/s * bytes-per-transfer).  The extra
// latency of a remote access is
//
//   remote_extra_latency_ns + qpi_queueing_slope_ns * utilisation
//
// so a congested link degrades remote accesses further — the paper's
// "interconnect link contention" factor.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "numa/machine_config.hpp"
#include "numa/rate_tracker.hpp"
#include "numa/topology.hpp"

namespace vprobe::numa {

class Interconnect {
 public:
  explicit Interconnect(const MachineConfig& cfg);

  // The three per-access entry points are defined inline: they run once or
  // twice per execution segment and the call overhead is measurable.

  /// Record `bytes` moved from node `from` to node `to` over `duration`.
  void record_traffic(NodeId from, NodeId to, double bytes, sim::Time now,
                      sim::Time duration) {
    assert(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
    if (from == to) return;  // local accesses never touch the fabric
    links_[link_index(from, to)].record(bytes, now, duration);
    total_bytes_ += bytes;
  }

  /// Utilisation of the (from, to) link in [0, ~).
  double utilization(NodeId from, NodeId to, sim::Time now) const {
    assert(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
    if (from == to) return 0.0;
    return links_[link_index(from, to)].rate(now) / link_bw_;
  }

  /// Extra nanoseconds a remote access pays on top of DRAM latency.
  double remote_extra_ns(NodeId from, NodeId to, sim::Time now) const {
    if (from == to) return 0.0;
    return base_extra_ns_ + queueing_slope_ns_ * utilization(from, to, now);
  }

  double link_bandwidth_bytes_per_s() const { return link_bw_; }
  double total_bytes() const { return total_bytes_; }

  void set_decay_cache(bool enabled) {
    for (RateTracker& link : links_) link.set_decay_cache(enabled);
  }

 private:
  std::size_t link_index(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(num_nodes_) +
           static_cast<std::size_t>(to);
  }

  int num_nodes_;
  double link_bw_;
  double base_extra_ns_;
  double queueing_slope_ns_;
  std::vector<RateTracker> links_;  // row-major [from][to]
  double total_bytes_ = 0.0;
};

}  // namespace vprobe::numa
