#include "cluster/placement.hpp"

#include <algorithm>
#include <stdexcept>

namespace vprobe::cluster {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return b > 0 ? (a + b - 1) / b : 0;
}

}  // namespace

std::int64_t HostSpace::total_free() const {
  std::int64_t total = 0;
  for (std::int64_t f : free_chunks) total += f;
  return total;
}

std::int64_t HostSpace::total_capacity() const {
  std::int64_t total = 0;
  for (std::int64_t c : capacity_chunks) total += c;
  return total;
}

bool fits_shape(std::span<const std::int64_t> free_chunks, int pieces,
                std::int64_t per_piece) {
  if (pieces <= 0) return true;
  if (pieces > static_cast<int>(free_chunks.size())) return false;
  // Equal pieces on distinct nodes: feasible iff the `pieces` largest free
  // counts each hold one piece (the greedy choice is exact for equal sizes).
  std::vector<std::int64_t> sorted(free_chunks.begin(), free_chunks.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<std::int64_t>());
  for (int i = 0; i < pieces; ++i) {
    if (sorted[static_cast<std::size_t>(i)] < per_piece) return false;
  }
  return true;
}

int desired_pieces(const HostSpace& host, const PlacementRequest& req) {
  const int nodes = static_cast<int>(host.capacity_chunks.size());
  if (nodes <= 1) return std::max(1, nodes);
  // CPU side: enough nodes to seat the VCPUs one-per-core.
  const int by_cpu = host.cores_per_node > 0
                         ? static_cast<int>(ceil_div(req.vcpus, host.cores_per_node))
                         : 1;
  // Memory side: enough nodes that a per-node piece fits a whole node.
  const std::int64_t node_cap =
      *std::max_element(host.capacity_chunks.begin(), host.capacity_chunks.end());
  const int by_mem =
      node_cap > 0 ? static_cast<int>(ceil_div(req.chunks, node_cap)) : 1;
  return std::clamp(std::max({1, by_cpu, by_mem}), 1, nodes);
}

PlacementScore score_host(const HostSpace& host, const PlacementRequest& req) {
  PlacementScore score;
  const std::int64_t total_free = host.total_free();
  const std::int64_t total_cap = host.total_capacity();
  const double cpu_cap =
      static_cast<double>(host.total_pcpus) * kCpuOvercommit;
  if (req.chunks > total_free) return score;
  if (static_cast<double>(host.live_vcpus + req.vcpus) > cpu_cap) return score;
  score.feasible = true;

  const int pieces = desired_pieces(host, req);
  score.shape_fit =
      fits_shape(host.free_chunks, pieces, ceil_div(req.chunks, pieces));

  const double mem_headroom =
      total_cap > 0
          ? static_cast<double>(total_free - req.chunks) / static_cast<double>(total_cap)
          : 0.0;
  const double cpu_headroom =
      cpu_cap > 0
          ? 1.0 - static_cast<double>(host.live_vcpus + req.vcpus) / cpu_cap
          : 0.0;
  score.headroom = 0.5 * (mem_headroom + cpu_headroom);
  return score;
}

int pick_host(std::span<const HostSpace> hosts,
              std::span<const PlacementRequest> reqs) {
  if (reqs.size() != hosts.size()) {
    throw std::invalid_argument("pick_host: one request per host is required");
  }
  int best = -1;
  PlacementScore best_score;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const PlacementScore s = score_host(hosts[i], reqs[i]);
    if (!s.feasible) continue;
    const bool better =
        best < 0 || (s.shape_fit && !best_score.shape_fit) ||
        (s.shape_fit == best_score.shape_fit && s.headroom > best_score.headroom);
    if (better) {
      best = hosts[i].host;
      best_score = s;
    }
  }
  return best;
}

}  // namespace vprobe::cluster
