// Shared last-level cache contention model.
//
// Each NUMA node owns one LlcModel.  VCPUs currently executing on the node
// register their cache demand (working-set bytes); the model turns the
// aggregate demand into a per-VCPU miss rate:
//
//   miss = clamp(solo_miss + sensitivity * overcommit, 0, 1)
//   overcommit = max(0, (sum of demands - capacity) / sum of demands)
//
// This captures the paper's three application classes: LLC-thrashing apps
// have a high solo miss rate regardless of co-runners; LLC-fitting apps have
// a low solo miss rate but high sensitivity (their misses explode under
// contention); LLC-friendly apps barely reference the cache at all, so their
// miss rate is irrelevant to their performance.
//
// The occupant table is a flat array scanned linearly: only VCPUs *running*
// on the node register demand, so it never holds more entries than the node
// has PCPUs (single digits).  set_demand/remove run twice per execution
// segment — the hottest mutation path in the simulator — and at this size a
// linear scan beats a hash map by a wide margin while performing the exact
// same total-demand arithmetic (the container never touches the doubles).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "numa/machine_config.hpp"

namespace vprobe::numa {

class LlcModel {
 public:
  explicit LlcModel(std::int64_t capacity_bytes)
      : capacity_(static_cast<double>(capacity_bytes)) {}

  /// Register (or update) the cache demand of an occupant, keyed by an
  /// opaque id (the VCPU's global id).  Demand is working-set bytes.
  void set_demand(std::uint64_t occupant, double demand_bytes) {
    for (Entry& e : demand_) {
      if (e.occupant == occupant) {
        total_demand_ += demand_bytes - e.demand;
        e.demand = demand_bytes;
        clamp_total();
        return;
      }
    }
    demand_.push_back(Entry{occupant, demand_bytes});
    total_demand_ += demand_bytes;
    clamp_total();
  }

  /// Remove an occupant (VCPU descheduled or migrated off-node).
  void remove(std::uint64_t occupant) {
    for (Entry& e : demand_) {
      if (e.occupant == occupant) {
        total_demand_ -= e.demand;
        clamp_total();
        e = demand_.back();  // order is irrelevant: reads only use the total
        demand_.pop_back();
        return;
      }
    }
  }

  /// Fraction of aggregate demand that does not fit: in [0, 1).
  double overcommit() const {
    if (total_demand_ <= capacity_ || total_demand_ <= 0.0) return 0.0;
    return (total_demand_ - capacity_) / total_demand_;
  }

  /// Aggregate demand over capacity; >1 means the cache is oversubscribed.
  /// This is the "LLC contention" signal the experiments report.
  double pressure() const { return total_demand_ / capacity_; }

  /// Effective miss rate for an occupant with the given solo miss rate and
  /// contention sensitivity.
  double miss_rate(double solo_miss, double sensitivity) const {
    const double m = solo_miss + sensitivity * overcommit();
    return std::clamp(m, 0.0, 1.0);
  }

  double capacity_bytes() const { return capacity_; }
  double total_demand_bytes() const { return total_demand_; }
  int occupants() const { return static_cast<int>(demand_.size()); }

 private:
  struct Entry {
    std::uint64_t occupant;
    double demand;
  };

  /// Guard against drift from repeated add/remove of large doubles.
  void clamp_total() {
    if (total_demand_ < 0.0) total_demand_ = 0.0;
  }

  double capacity_;
  double total_demand_ = 0.0;
  std::vector<Entry> demand_;
};

}  // namespace vprobe::numa
