// Initial-placement policy for the cluster control plane.
//
// The feasibility filter follows Gudkov et al. ("Efficient calculation of
// available space for multi-NUMA virtual machines", PAPERS.md): a VM that
// spans NUMA nodes is modelled as k equal memory pieces that must land on
// k distinct nodes, and a host is a shape-fit when its per-node free-chunk
// vector admits that split.  Hosts that only fit by total free memory
// (fill-first would scatter the pieces) remain admissible but rank below
// every shape-fit host.  Among hosts of the same class the controller
// picks worst-fit — the host keeping the most memory+CPU headroom after
// placement — which spreads load and keeps room for VMs to grow.
//
// Everything here is pure math over snapshots, deterministic, and
// unit-testable without a hypervisor.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vprobe::cluster {

/// What a VM asks of a host, in that host's units.
struct PlacementRequest {
  std::int64_t chunks = 0;  ///< guest memory, in the host's chunk size
  int vcpus = 0;
};

/// Snapshot of one host's available space (net of in-flight migration
/// reservations — the caller subtracts those).
struct HostSpace {
  int host = -1;
  std::vector<std::int64_t> free_chunks;      ///< per node
  std::vector<std::int64_t> capacity_chunks;  ///< per node
  int live_vcpus = 0;   ///< VCPUs currently hosted (any state but Done)
  int total_pcpus = 0;
  int cores_per_node = 0;

  std::int64_t total_free() const;
  std::int64_t total_capacity() const;
};

/// Admission cap on live VCPUs per host, as a multiple of PCPUs.  The
/// simulated fleets routinely oversubscribe 1.5-3x; 8x is the refuse-to-
/// thrash backstop, not a performance target.
constexpr double kCpuOvercommit = 8.0;

/// Gudkov-style shape test: can `pieces` pieces of `per_piece` chunks land
/// on `pieces` distinct nodes of this free vector?
bool fits_shape(std::span<const std::int64_t> free_chunks, int pieces,
                std::int64_t per_piece);

/// Number of nodes the request wants to span on a host with this geometry:
/// enough nodes to seat the VCPUs and to hold a per-node memory piece,
/// clamped to the node count.
int desired_pieces(const HostSpace& host, const PlacementRequest& req);

struct PlacementScore {
  bool feasible = false;   ///< total free memory + CPU cap admit the VM
  bool shape_fit = false;  ///< the k-piece multi-NUMA split also fits
  double headroom = 0.0;   ///< mean of post-placement memory/CPU headroom
};

PlacementScore score_host(const HostSpace& host, const PlacementRequest& req);

/// Best host for a VM, or -1 when none is feasible.  `reqs[i]` is the VM
/// sized in `hosts[i]`'s units (chunk size is a host property).  Ranking:
/// shape-fit before overflow-fit, then max headroom (worst-fit), then
/// lowest host id — fully deterministic.  Cluster::admit places with this.
int pick_host(std::span<const HostSpace> hosts,
              std::span<const PlacementRequest> reqs);

}  // namespace vprobe::cluster
