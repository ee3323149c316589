#include "trace/analysis.hpp"

#include <unordered_map>

namespace vprobe::trace {

NodeResidency::NodeResidency(const std::vector<Record>& records,
                             const numa::Topology& topology, sim::Time horizon)
    : num_nodes_(topology.num_nodes()) {
  struct Open {
    sim::Time since;
    numa::NodeId node;
  };
  std::unordered_map<int, Open> open;

  auto close = [&](int vcpu, sim::Time until) {
    auto it = open.find(vcpu);
    if (it == open.end()) return;
    auto& row = seconds_[vcpu];
    if (row.empty()) row.assign(static_cast<std::size_t>(num_nodes_), 0.0);
    row[static_cast<std::size_t>(it->second.node)] +=
        (until - it->second.since).to_seconds();
    open.erase(it);
  };

  for (const Record& r : records) {
    if (r.kind == EventKind::kSwitchIn) {
      close(r.vcpu, r.when);  // tolerate missing switch-out (ring dropped it)
      open[r.vcpu] = Open{r.when, topology.node_of(r.pcpu)};
    } else if (r.kind == EventKind::kSwitchOut) {
      close(r.vcpu, r.when);
    }
  }
  for (const auto& [vcpu, o] : open) {
    auto& row = seconds_[vcpu];
    if (row.empty()) row.assign(static_cast<std::size_t>(num_nodes_), 0.0);
    if (horizon > o.since) {
      row[static_cast<std::size_t>(o.node)] += (horizon - o.since).to_seconds();
    }
  }
}

double NodeResidency::seconds_on(int vcpu, numa::NodeId node) const {
  auto it = seconds_.find(vcpu);
  if (it == seconds_.end()) return 0.0;
  return it->second.at(static_cast<std::size_t>(node));
}

double NodeResidency::fraction_on(int vcpu, numa::NodeId node) const {
  auto it = seconds_.find(vcpu);
  if (it == seconds_.end()) return 0.0;
  double total = 0.0;
  for (double s : it->second) total += s;
  return total > 0.0 ? it->second.at(static_cast<std::size_t>(node)) / total : 0.0;
}

std::vector<int> NodeResidency::vcpus() const {
  std::vector<int> out;
  out.reserve(seconds_.size());
  for (const auto& [vcpu, row] : seconds_) out.push_back(vcpu);
  return out;
}

MigrationMatrix::MigrationMatrix(const std::vector<Record>& records,
                                 int num_pcpus)
    : num_pcpus_(num_pcpus),
      counts_(static_cast<std::size_t>(num_pcpus) * static_cast<std::size_t>(num_pcpus),
              0) {
  for (const Record& r : records) {
    if (r.kind != EventKind::kMigration) continue;
    // Migration records carry aux = previous pcpu.
    const int from = r.aux;
    const int to = r.pcpu;
    if (from < 0 || from >= num_pcpus_ || to < 0 || to >= num_pcpus_) continue;
    ++counts_[static_cast<std::size_t>(from) * static_cast<std::size_t>(num_pcpus_) +
              static_cast<std::size_t>(to)];
    ++total_;
  }
}

std::uint64_t MigrationMatrix::between(int from, int to) const {
  return counts_.at(static_cast<std::size_t>(from) *
                        static_cast<std::size_t>(num_pcpus_) +
                    static_cast<std::size_t>(to));
}

std::uint64_t MigrationMatrix::cross_node(const numa::Topology& topology) const {
  std::uint64_t n = 0;
  for (int from = 0; from < num_pcpus_; ++from) {
    for (int to = 0; to < num_pcpus_; ++to) {
      if (!topology.same_node(from, to)) n += between(from, to);
    }
  }
  return n;
}

}  // namespace vprobe::trace
