// Machine physical memory accounting and per-VM memory placement.
//
// Memory is tracked at chunk granularity (default 4 MiB) — fine enough to
// expose cross-node spreading of a VM's pages, coarse enough that a 15 GB VM
// needs only ~4k bookkeeping entries.
//
// MemoryManager owns the per-node free-chunk pools of the machine.  VmMemory
// represents one VM's guest-physical memory: every chunk has a home node
// (or none yet, under first-touch).  Guest applications carve Regions out of
// the VM's memory with a bump allocator; the cost model asks for a Region's
// node histogram to decide where cache misses land.
//
// Xen 4.0.1 — the paper's hypervisor — had no NUMA-aware allocator: a VM's
// memory came from whatever node had free pages, in fill order.  That policy
// (kFillFirst) is the default, and is what produces the paper's Figure 1
// pathology: VM memory concentrates on one node while Credit spreads the
// VCPUs over all of them.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "numa/machine_config.hpp"
#include "numa/topology.hpp"

namespace vprobe::numa {

/// How a VM's chunks are assigned home nodes.
enum class PlacementPolicy {
  kFillFirst,   ///< drain node 0, then node 1, ... (Xen 4.0.1 behaviour)
  kStriped,     ///< round-robin across nodes (interleaved)
  kOnNode,      ///< all on a preferred node, overflowing fill-first
  kFirstTouch,  ///< unassigned until touched; home = toucher's node
};

const char* to_string(PlacementPolicy policy);

/// Per-node physical chunk pools for the whole machine.
class MemoryManager {
 public:
  explicit MemoryManager(const MachineConfig& cfg);

  std::int64_t capacity_chunks(NodeId node) const;
  std::int64_t free_chunks(NodeId node) const;
  std::int64_t used_chunks(NodeId node) const;

  /// Reserve one chunk, preferring `preferred`, overflowing to the node with
  /// the most free chunks.  Returns the node the chunk landed on.
  /// Throws std::bad_alloc when the machine is out of memory.
  NodeId reserve_chunk(NodeId preferred);

  /// Reserve one chunk in strict fill order (node 0 first).
  NodeId reserve_chunk_fill_first();

  void release_chunk(NodeId node);

  int num_nodes() const { return static_cast<int>(free_.size()); }

 private:
  /// Tests corrupt the pool through this, to prove the invariant checker
  /// catches a state no public call can reach (tests/check_test.cpp).
  friend struct MemoryManagerFaults;

  std::vector<std::int64_t> capacity_;
  std::vector<std::int64_t> free_;
};

/// A contiguous guest-physical range, in chunks.
struct Region {
  std::int64_t first_chunk = 0;
  std::int64_t num_chunks = 0;

  bool empty() const { return num_chunks == 0; }
  friend bool operator==(const Region&, const Region&) = default;
};

/// One VM's guest-physical memory and its placement across nodes.
class VmMemory {
 public:
  /// Creates a VM of `bytes` and, for eager policies, immediately assigns
  /// every chunk a home node.  Under kFirstTouch chunks stay homeless until
  /// touch() is called.  `preferred` seeds kOnNode/kStriped/kFirstTouch.
  VmMemory(MemoryManager& mm, const MachineConfig& cfg, std::int64_t bytes,
           PlacementPolicy policy, NodeId preferred = 0);

  VmMemory(const VmMemory&) = delete;
  VmMemory& operator=(const VmMemory&) = delete;
  ~VmMemory();

  /// Guest allocator.  Throws std::bad_alloc when the VM is full.
  /// Default mode is a bump allocator from guest-physical 0; with
  /// alternate_allocation(true), successive regions alternate between the
  /// low and high ends of guest memory — a cheap model of a guest OS whose
  /// allocations land all over its address space, which on a fill-first
  /// host spreads application data across NUMA nodes exactly as the
  /// paper's "memory split into two nodes" VM1 configuration intends.
  Region alloc_region(std::int64_t bytes);

  /// Toggle alternating low/high allocation (see alloc_region).
  void alternate_allocation(bool enabled) { alternate_ = enabled; }

  std::int64_t total_chunks() const { return static_cast<std::int64_t>(home_.size()); }
  std::int64_t allocated_chunks() const {
    return next_chunk_ + (total_chunks() - back_chunk_);
  }
  std::int64_t chunk_bytes() const { return chunk_bytes_; }

  /// Home node of a chunk; kInvalidNode if not yet first-touched.
  NodeId chunk_home(std::int64_t chunk) const {
    return home_.at(static_cast<std::size_t>(chunk));
  }

  /// First-touch: assign homes to the first `fraction` of `region`'s chunks
  /// that are still homeless, placing them on `node`.  Idempotent.
  void touch(const Region& region, double fraction, NodeId node);

  /// Fraction of `region`'s homed chunks living on each node.  If no chunk
  /// is homed yet, returns all-zeros.  Results are cached per region and
  /// invalidated by any placement change in the VM.
  const std::vector<double>& node_fractions(const Region& region) const;

  /// Move one chunk to `to` (page-migration extension).  Returns false when
  /// the chunk is homeless or already on `to` or `to` has no free chunks.
  bool migrate_chunk(std::int64_t chunk, NodeId to);

  /// Count of homed chunks per node across the whole VM.
  std::vector<std::int64_t> node_census() const;

  PlacementPolicy policy() const { return policy_; }
  std::uint64_t placement_version() const { return version_; }

 private:
  MemoryManager& mm_;
  std::int64_t chunk_bytes_;
  int num_nodes_;
  PlacementPolicy policy_;
  std::vector<NodeId> home_;
  std::int64_t next_chunk_ = 0;
  std::int64_t back_chunk_ = 0;  ///< one past the last free chunk at the top
  bool alternate_ = false;
  bool next_from_back_ = false;
  std::uint64_t version_ = 0;

  struct CacheEntry {
    std::uint64_t version = ~0ull;
    std::vector<double> fractions;
  };
  mutable std::unordered_map<std::int64_t, CacheEntry> fraction_cache_;
};

}  // namespace vprobe::numa
