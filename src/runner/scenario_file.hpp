// Declarative scenario files: run arbitrary consolidation experiments
// without writing C++.  Line-oriented format, '#' comments:
//
//     machine xeon_e5620            # or: four_node
//     scheduler vprobe              # credit|vprobe|vcpu_p|lb|brm|autonuma
//     seed 42
//     scale 0.25                    # instruction-budget scale
//     horizon 600                   # seconds of simulated time, safety stop
//     sampling 1.0                  # vProbe-family sampling period, seconds
//
//     vm name=VM1 mem=15G vcpus=8 policy=fill_first alternate=1
//     vm name=VM3 mem=1G  vcpus=8 preferred=1
//
//     app vm=VM1 kind=spec profile=soplex count=4 measure=1
//     app vm=VM1 kind=ticks from=4
//     app vm=VM3 kind=hungry
//
//     # Optional dynamic background: VMs arriving/pausing/departing while
//     # the measured apps run (seeded; defaults to the scenario seed).
//     churn interarrival=0.06 lifetime=0.15 pause_prob=0.3 max_live=6
//
// Multi-machine (cluster) scenarios replace `machine` with a fleet:
//
//     machines xeon_e5620*2 four_node*2   # 4 hosts, ids 0..3 in order
//     vm name=pinned mem=2G vcpus=4 host=1   # pin to host 1 (optional)
//     migrate vm=burner to=2 at=0.1          # scripted live migration
//     balance period=0.5 threshold=0.25      # periodic load balancer
//
// Cluster runs admit VMs through the control plane (Gudkov-style placement
// filter), may run with no measured app (they stop at the horizon), and
// report per-host plus cluster-rollup metrics.
//
// A `machine` spec runs as a cluster of one: the same run path, with one
// host on the control engine (child_seed(seed, 0) == seed).  What a single
// machine means stays as data: every app starts in its own staggered slot
// (no VM is movable), the metrics carry no `hosts` entries (so the host
// records no trace; nothing would report it), and a run with nothing to
// measure is an error unless it serves open-loop traffic.  Its VMs and its
// churn arrivals pass the fleet admission filter too: a declared VM that
// does not fit the machine, or one beyond 8x VCPU overcommit, is refused
// with std::invalid_argument naming the VM, and a refused churn arrival
// is skipped exactly as in a fleet.
//
// Open-loop serving (docs/SERVING.md): `kind=kv` apps build RequestServers
// and the `openloop`/`slo` directives drive and judge them:
//
//     app vm=KV1 kind=kv threads=4 instr=150k batch=32
//     openloop rps=2000 spike_at=0.3 spike_until=0.5 spike_x=4
//     slo ms=5
//
// The client injects Poisson arrivals (requests/sec, optionally spiked or
// diurnally modulated) round-robin over every kv server, per-request
// sojourn times land in the latency histogram (p50/p99/p999 + SLO counts
// in the JSON/CSV output), and a serving-only scenario is horizon-bounded
// by design.  kv VMs are never cluster-movable (their guest state lives
// outside the control plane).
//
// App kinds: spec (count instances, one VCPU each, starting at `from`),
// npb (4-threaded barrier app; `threads=` to change), hungry (one loop per
// remaining VCPU from `from`), ticks (guest housekeeping on VCPUs from
// `from`), kv (request server with `threads=` workers from `from`).  Apps
// with measure=1 define run completion and the reported runtime; when none
// is marked, every spec/npb app is measured.
//
// Numbers take a K/M/G suffix (powers of 1024).  Counts, sizes, ids and
// seeds must be whole and fit their field (below 2^53 at most, where a
// double still holds every whole number), scale/horizon/sampling must be
// positive, alternate=/measure= take 0 or 1, and machine, scheduler, seed,
// scale, horizon and sampling take exactly one argument; anything else is
// rejected with its line number.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "runner/churn.hpp"
#include "runner/scenario.hpp"
#include "stats/metrics.hpp"

namespace vprobe::runner {

struct ScenarioSpec {
  std::string machine = "xeon_e5620";
  SchedKind sched = SchedKind::kVprobe;
  std::uint64_t seed = 1;
  double scale = 0.25;
  double horizon_s = 3600.0;
  double sampling_s = 1.0;

  struct VmSpec {
    std::string name;
    std::int64_t mem_bytes = 0;
    int vcpus = 0;
    numa::PlacementPolicy policy = numa::PlacementPolicy::kFillFirst;
    int preferred = 0;
    bool alternate = false;
    int host = -1;  ///< cluster mode: pin to this host; -1 = controller places
  };

  struct AppSpec {
    std::string vm;
    std::string kind;          ///< spec | npb | hungry | ticks | kv
    std::string profile;       ///< for spec/npb/kv (kv default: memcached)
    int count = 1;             ///< spec instances
    int threads = 4;           ///< npb threads / kv workers
    int from = 0;              ///< first VCPU index used
    bool measure = false;
    double instr = 150e3;      ///< kv: service demand per request
    int batch = 32;            ///< kv: requests coalesced per burst
  };

  std::vector<VmSpec> vms;
  std::vector<AppSpec> apps;

  /// Dynamic background churn (see ChurnDriver).  When enabled and
  /// churn.seed is 0, the driver runs off the scenario seed.
  bool churn_enabled = false;
  ChurnOptions churn;

  /// Open-loop traffic against the kv servers ("openloop" directive).
  /// seed 0 derives from the scenario seed; the client draws on its own
  /// child stream either way (see wl::OpenLoopClient).
  struct OpenLoopSpec {
    double rps = 0.0;
    double start_s = 0.0;
    std::uint64_t seed = 0;
    std::uint64_t max_requests = 0;
    double spike_at_s = -1.0;
    double spike_until_s = -1.0;
    double spike_x = 1.0;
    double diurnal_period_s = 0.0;
    double diurnal_amp = 0.0;
    /// Server pick per arrival: "rr" (round-robin, default) or "p2c"
    /// (deterministic power-of-two-choices on the client's own stream;
    /// reads queue depths at arrival time, so it always runs eagerly).
    std::string balance = "rr";
  };
  bool openloop_enabled = false;
  OpenLoopSpec openloop;

  /// Request-latency SLO threshold in milliseconds ("slo" directive);
  /// 0 disables violation counting.
  double slo_ms = 0.0;

  /// Cluster mode: the fleet, in host-id order ("machines" directive).
  struct MachineSpec {
    std::string kind;  ///< xeon_e5620 | four_node
    int count = 1;
  };
  std::vector<MachineSpec> machines;
  bool cluster_mode() const { return !machines.empty(); }
  int num_hosts() const {
    int total = 0;
    for (const auto& m : machines) total += m.count;
    return total;
  }

  /// Scripted cross-host live migrations ("migrate" directive).
  struct MigrateSpec {
    std::string vm;
    int to_host = 0;
    double at_s = 0.0;
  };
  std::vector<MigrateSpec> migrations;

  /// Periodic cluster load balancer ("balance" directive).
  bool balance_enabled = false;
  double balance_period_s = 0.5;
  double balance_threshold = 0.25;

  /// Engine shards for cluster runs (no file directive — the caller sets
  /// it, e.g. from run_scenario's --sim-threads flag, since the scenario
  /// describes the experiment and threading must not change its result:
  /// any N is bit-identical to 1, see docs/PDES.md).
  int sim_threads = 1;
  /// Batched demand-driven windows for sharded runs (no file directive —
  /// set from --no-window-batch by the caller, same reasoning
  /// as sim_threads: bit-identical either way, docs/PDES.md).
  bool window_batch = true;
  /// Lazy open-loop arrival delivery (no file directive — set from
  /// --no-lazy-arrivals by the caller, same reasoning as
  /// window_batch: bit-identical either way, docs/SERVING.md).
  bool lazy_arrivals = true;
};

/// Parse the scenario text.  Throws std::invalid_argument with a line
/// number on malformed input; validates VM references and profiles.
ScenarioSpec parse_scenario(std::string_view text);

/// Build, run and measure the scenario.  Returns aggregated metrics over
/// the measured apps (runtime per app, counters of their VMs).  Throws
/// std::invalid_argument when the spec cannot run (a VM refused admission,
/// nothing to measure, an app beyond its VM's VCPUs).
stats::RunMetrics run_scenario(const ScenarioSpec& spec);

}  // namespace vprobe::runner
