#include "numa/page_migration.hpp"

namespace vprobe::numa {
namespace {

/// Do not bother migrating when at least this fraction already lives on the
/// target node.
constexpr double kSatisfactionThreshold = 0.90;

}  // namespace

PageMigrator::Result PageMigrator::rebalance(VmMemory& memory,
                                             const Region& region,
                                             NodeId target) {
  Result result;
  if (region.empty()) return result;
  const auto& fractions = memory.node_fractions(region);
  if (target < 0 || static_cast<std::size_t>(target) >= fractions.size()) {
    return result;
  }
  if (fractions[static_cast<std::size_t>(target)] >= kSatisfactionThreshold) {
    return result;
  }
  for (std::int64_t c = region.first_chunk;
       c < region.first_chunk + region.num_chunks &&
       result.chunks_moved < kMaxChunksPerRound;
       ++c) {
    const NodeId home = memory.chunk_home(c);
    if (home == kInvalidNode || home == target) continue;
    if (memory.migrate_chunk(c, target)) {
      ++result.chunks_moved;
      result.cost += kCostPerChunk;
    }
  }
  return result;
}

}  // namespace vprobe::numa
