#include "stats/json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace vprobe::stats {

std::string JsonWriter::escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::pre_value() {
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ << ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_ << '{';
  needs_comma_.push_back(false);
  ++depth_;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ << '}';
  needs_comma_.pop_back();
  --depth_;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_ << '[';
  needs_comma_.push_back(false);
  ++depth_;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ << ']';
  needs_comma_.pop_back();
  --depth_;
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ << ',';
    // The upcoming value must not add another comma.
    needs_comma_.back() = false;
  }
  out_ << '"' << escape(name) << "\":";
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  pre_value();
  out_ << '"' << escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  pre_value();
  if (std::isfinite(v)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out_ << buf;
  } else {
    out_ << "null";  // JSON has no NaN/Inf
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  pre_value();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  pre_value();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  out_ << (v ? "true" : "false");
  return *this;
}

std::string to_json(const RunMetrics& m) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .member("scheduler", m.scheduler)
      .member("workload", m.workload)
      .member("avg_runtime_s", m.avg_runtime_s)
      .member("total_mem_accesses", m.total_mem_accesses)
      .member("remote_mem_accesses", m.remote_mem_accesses)
      .member("remote_access_ratio", m.remote_access_ratio())
      .member("throughput_rps", m.throughput_rps)
      .member("latency_p50_s", m.latency_p50_s())
      .member("latency_p99_s", m.latency_p99_s())
      .member("latency_p999_s", m.latency_p999_s())
      .member("latency_max_s", m.latency_max_s())
      .member("requests", m.latency.count())
      .member("slo_threshold_s", m.slo_threshold_s)
      .member("slo_violations", m.slo_violations)
      .member("slo_violation_fraction", m.slo_violation_fraction())
      .member("arrival_events", m.arrival_events)
      .member("arrivals_coalesced", m.arrivals_coalesced)
      .member("overhead_fraction", m.overhead_fraction)
      .member("migrations", static_cast<std::uint64_t>(m.migrations))
      .member("cross_node_migrations",
              static_cast<std::uint64_t>(m.cross_node_migrations))
      .member("sim_seconds", m.sim_seconds)
      .member("completed", m.completed);
  json.key("app_runtime_s").begin_object();
  for (const auto& [name, t] : m.app_runtime_s) json.member(name, t);
  json.end_object();
  // Cluster keys exist only for multi-machine runs, so single-machine JSON
  // stays byte-identical to the pre-cluster format.
  if (m.is_cluster_run()) {
    json.key("hosts").begin_array();
    for (const HostMetrics& h : m.hosts) {
      json.begin_object()
          .member("name", h.name)
          .member("machine", h.machine)
          .member("domains", static_cast<std::int64_t>(h.domains))
          .member("vcpus", static_cast<std::int64_t>(h.vcpus))
          .member("busy_s", h.busy_s)
          .member("migrations", h.migrations)
          .member("cross_node_migrations", h.cross_node_migrations)
          .member("trace_records", h.trace_records)
          .member("trace_digest", hex_digest(h.trace_digest))
          .member("requests", h.latency.count())
          .member("latency_p50_s", h.latency.p50_s())
          .member("latency_p99_s", h.latency.p99_s())
          .member("latency_p999_s", h.latency.p999_s())
          .member("slo_violations", h.slo_violations);
      json.end_object();
    }
    json.end_array();
    json.key("cluster").begin_object();
    json.member("num_hosts", static_cast<std::int64_t>(m.hosts.size()))
        .member("admitted", m.cluster.admitted)
        .member("rejected", m.cluster.rejected)
        .member("migrations_started", m.cluster.migrations_started)
        .member("migrations_completed", m.cluster.migrations_completed)
        .member("migrations_rejected", m.cluster.migrations_rejected)
        .member("precopy_rounds", m.cluster.precopy_rounds)
        .member("migrated_bytes", m.cluster.migrated_bytes)
        .member("balance_actions", m.cluster.balance_actions)
        .member("fleet_digest", hex_digest(m.cluster.fleet_digest))
        .member("sync_windows", m.cluster.sync_windows)
        .member("sync_windows_coalesced", m.cluster.sync_windows_coalesced)
        .member("sync_control_events", m.cluster.sync_control_events)
        .member("sync_barriers", m.cluster.sync_barriers)
        .member("sync_shard_dispatches", m.cluster.sync_shard_dispatches)
        .member("sync_shard_skips", m.cluster.sync_shard_skips)
        .member("pool_wakeups", m.cluster.pool_wakeups)
        .member("pool_spin_grabs", m.cluster.pool_spin_grabs)
        .member("pool_parks", m.cluster.pool_parks);
    json.end_object();
  }
  json.end_object();
  return os.str();
}

}  // namespace vprobe::stats
