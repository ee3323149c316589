#include "stats/aggregate.hpp"

namespace vprobe::stats {

void MetricsAccumulator::add(const RunMetrics& m) {
  std::lock_guard<std::mutex> lock(mu_);
  ++n_;
  if (n_ == 1) {
    acc_ = m;
    return;
  }
  acc_.completed = acc_.completed && m.completed;
  for (const auto& [name, t] : m.app_runtime_s) acc_.app_runtime_s[name] += t;
  acc_.avg_runtime_s += m.avg_runtime_s;
  acc_.total_mem_accesses += m.total_mem_accesses;
  acc_.remote_mem_accesses += m.remote_mem_accesses;
  acc_.throughput_rps += m.throughput_rps;
  // Latency: merge the underlying distributions, never average percentiles
  // (the mean of two p99s is not the p99 of the pooled samples).  The merge
  // is an element-wise integer bucket add, so it is order-insensitive —
  // stronger than the index-order contract the float sums above need.
  acc_.latency.merge(m.latency);
  acc_.slo_violations += m.slo_violations;
  if (acc_.slo_threshold_s == 0.0) acc_.slo_threshold_s = m.slo_threshold_s;
  // Arrival-path counters total over the pooled runs, like slo_violations.
  acc_.arrival_events += m.arrival_events;
  acc_.arrivals_coalesced += m.arrivals_coalesced;
  acc_.overhead_fraction += m.overhead_fraction;
  acc_.migrations += m.migrations;
  acc_.cross_node_migrations += m.cross_node_migrations;
  acc_.sim_seconds += m.sim_seconds;
}

RunMetrics MetricsAccumulator::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (n_ <= 1) return acc_;
  RunMetrics out = acc_;
  const double n = static_cast<double>(n_);
  for (auto& [name, t] : out.app_runtime_s) t /= n;
  out.avg_runtime_s /= n;
  out.total_mem_accesses /= n;
  out.remote_mem_accesses /= n;
  out.throughput_rps /= n;
  // out.latency is the merged distribution: percentiles recomputed on it
  // are already the pooled-sample statistics, and slo_violations stays the
  // total count over the pooled requests (the violation *fraction* is what
  // normalises).  Nothing to divide here.
  out.overhead_fraction /= n;
  out.migrations =
      static_cast<std::uint64_t>(static_cast<double>(out.migrations) / n);
  out.cross_node_migrations = static_cast<std::uint64_t>(
      static_cast<double>(out.cross_node_migrations) / n);
  out.sim_seconds /= n;
  return out;
}

}  // namespace vprobe::stats
