// Fleet-wide invariant checking: per-machine checkers + cluster rules.
//
// A FleetCheck owns one check::InvariantChecker per host (each scoped
// "[hostN]" so violations stay attributable) and adds the control-plane
// invariant the per-host checkers cannot see: every admitted VM is resident
// on exactly one host — its recorded one — at every control-plane
// transition, including while a live migration is in flight (the domain
// stays on the source until the cutover event, which destroys the source
// incarnation before creating the destination one).  Destination-side
// memory reservations must also net out: zero on hosts with no inbound
// migration, never negative anywhere.
//
// Each engine has a single observer slot: on a serial fleet (one shared
// engine) host 0's checker takes it, while a sharded PDES fleet gives every
// host shard its own checker as observer — event-time monotonicity and
// equal-time FIFO order are per-engine properties either way.  Every host
// always gets the full HvObserver hook set.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hpp"

namespace vprobe::cluster {

class Cluster;

class FleetCheck {
 public:
  /// Attaches to every host of `cluster` and registers for control-plane
  /// transitions.  The FleetCheck must outlive the cluster or the caller
  /// must destroy it first (the destructor detaches both sides).
  explicit FleetCheck(Cluster& cluster);
  ~FleetCheck();
  FleetCheck(const FleetCheck&) = delete;
  FleetCheck& operator=(const FleetCheck&) = delete;

  /// Cluster hook: verify the residency + reservation invariants against
  /// the current control-plane state.  Called by the Cluster after every
  /// admit/destroy/migration transition.
  void on_transition(Cluster& cluster);

  bool ok() const;
  /// All violations: per-host checker findings, then cluster-level ones.
  std::vector<check::Violation> violations() const;
  std::uint64_t total_violations() const;

  /// Full sweep of every host plus the cluster rules; throws
  /// std::runtime_error describing the first violations, if any.
  void expect_ok();

 private:
  void report(const Cluster& cluster, std::string what);

  Cluster* cluster_;
  std::vector<std::unique_ptr<check::InvariantChecker>> checkers_;
  std::vector<check::Violation> cluster_violations_;
  std::uint64_t cluster_total_ = 0;
};

}  // namespace vprobe::cluster
