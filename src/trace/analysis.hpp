// Offline analysis over trace records: per-VCPU node residency (how much
// CPU time each VCPU spent on each NUMA node) and the PCPU->PCPU migration
// matrix.  These are the views that make a scheduler's placement behaviour
// legible — "did the partitioner actually keep VM1's VCPUs on node 0?"
// becomes a one-line answer.
#pragma once

#include <map>
#include <vector>

#include "numa/topology.hpp"
#include "trace/event.hpp"

namespace vprobe::trace {

/// Per-VCPU CPU time broken down by the node it ran on.
class NodeResidency {
 public:
  /// Integrates switch-in/switch-out pairs over `records` (chronological).
  /// Unpaired trailing switch-ins are closed at `horizon`.
  NodeResidency(const std::vector<Record>& records,
                const numa::Topology& topology, sim::Time horizon);

  /// Seconds `vcpu` spent running on `node` (0 when never seen).
  double seconds_on(int vcpu, numa::NodeId node) const;

  /// Fraction of `vcpu`'s tracked CPU time spent on `node`.
  double fraction_on(int vcpu, numa::NodeId node) const;

  /// All VCPUs seen, ascending.
  std::vector<int> vcpus() const;

 private:
  int num_nodes_;
  std::map<int, std::vector<double>> seconds_;  // vcpu -> per-node seconds
};

/// Count of migrations between every (from-pcpu, to-pcpu) pair.
class MigrationMatrix {
 public:
  MigrationMatrix(const std::vector<Record>& records, int num_pcpus);

  std::uint64_t between(int from, int to) const;
  std::uint64_t total() const { return total_; }
  std::uint64_t cross_node(const numa::Topology& topology) const;

 private:
  int num_pcpus_;
  std::vector<std::uint64_t> counts_;  // row-major [from][to]
  std::uint64_t total_ = 0;
};

}  // namespace vprobe::trace
