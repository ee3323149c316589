// Machine description for the simulated NUMA host.
//
// The default configuration mirrors Table I of the vProbe paper: a
// two-socket Intel Xeon E5620 (4 cores per socket in the paper's setup),
// 12 MB shared L3 per socket, one integrated memory controller per node at
// 25.6 GB/s, 12 GB of memory per node, and two QPI links at 5.86 GT/s.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace vprobe::numa {

struct MachineConfig {
  // -- Topology ------------------------------------------------------------
  int num_nodes = 2;            ///< NUMA nodes (= sockets here)
  int cores_per_node = 4;       ///< PCPUs per node
  double clock_ghz = 2.40;      ///< core clock frequency

  // -- Cache hierarchy -----------------------------------------------------
  std::int64_t l1_bytes = 32 * 1024;         ///< per-core L1D
  std::int64_t l2_bytes = 256 * 1024;        ///< per-core unified L2
  std::int64_t llc_bytes = 12ll * 1024 * 1024;  ///< per-node shared L3
  double llc_hit_cycles = 40.0;              ///< L3 hit latency (cycles)

  // -- Memory --------------------------------------------------------------
  std::int64_t mem_bytes_per_node = 12ll * 1024 * 1024 * 1024;
  double imc_bandwidth_bytes_per_s = 25.6e9;  ///< per-node IMC bandwidth
  double local_mem_latency_ns = 65.0;         ///< uncontended local DRAM
  std::int64_t cache_line_bytes = 64;
  std::int64_t page_bytes = 4096;
  /// Placement granularity for VM memory bookkeeping.  4 MiB chunks keep the
  /// per-VM metadata small while still exposing cross-node page spreading.
  std::int64_t chunk_bytes = 4ll * 1024 * 1024;

  // -- Interconnect (QPI-like) ----------------------------------------------
  int qpi_links = 2;
  double qpi_gt_per_s = 5.86;           ///< giga-transfers/s per link
  double qpi_bytes_per_transfer = 2.0;  ///< QPI moves 2 bytes per transfer
  double remote_extra_latency_ns = 110.0;  ///< uncontended extra hop latency
  /// Additional remote latency per unit of link utilisation (queueing slope).
  double qpi_queueing_slope_ns = 300.0;

  // -- Execution -----------------------------------------------------------
  double base_cpi = 0.8;  ///< CPI with all memory references hitting L1/L2

  // Derived helpers ---------------------------------------------------------
  int total_pcpus() const { return num_nodes * cores_per_node; }
  double qpi_link_bandwidth_bytes_per_s() const {
    return qpi_gt_per_s * 1e9 * qpi_bytes_per_transfer;
  }
  std::int64_t chunks_per_node() const { return mem_bytes_per_node / chunk_bytes; }

  /// Throws std::invalid_argument when a field is out of range.
  void validate() const;

  /// Human-readable summary (printed by every bench header, reproducing the
  /// role of Table I in the paper).
  std::string summary() const;

  /// The paper's experimental platform (Table I).
  static MachineConfig xeon_e5620();

  /// A larger four-node machine used by scaling tests and extension benches.
  static MachineConfig four_node_server();
};

}  // namespace vprobe::numa
