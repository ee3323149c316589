// Scenario plumbing shared by benches, examples and integration tests:
// scheduler factory, the paper's standard three-VM setup (Section V-A), and
// the run-to-completion driver.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "hv/hypervisor.hpp"
#include "workload/os_ticker.hpp"

namespace vprobe::runner {

/// The five scheduling approaches evaluated in Section V, plus an
/// AutoNUMA-style comparator from the related-work family (kAutoNuma —
/// not part of the paper's figures).
enum class SchedKind { kCredit, kVprobe, kVcpuP, kLb, kBrm, kAutoNuma };

const char* to_string(SchedKind kind);

/// Parse a scheduler name: the scenario-file spellings ("credit", "vprobe",
/// "vcpu_p", "lb", "brm", "autonuma") or the display names from
/// to_string().  Empty optional when unknown.
std::optional<SchedKind> sched_from_name(std::string_view name);

/// Comma-separated list of every accepted scheduler spelling, for error
/// messages ("credit, vprobe, vcpu_p, lb, brm, autonuma").
std::string valid_sched_names();

/// The paper's five, in its legend order.
std::span<const SchedKind> paper_schedulers();

/// Everything the factory can build (paper's five + AutoNUMA).
std::span<const SchedKind> all_schedulers();

struct SchedulerOptions {
  sim::Time sampling_period = sim::Time::sec(1);
  bool dynamic_bounds = false;  ///< future-work extension (vProbe family)
  /// The slice clamp and decay memos (Hypervisor::Config::rate_cache,
  /// docs/PERF.md).  false = the --no-rate-cache escape hatch: recompute
  /// everything.
  bool rate_cache = true;
};

std::unique_ptr<hv::Scheduler> make_scheduler(SchedKind kind,
                                              SchedulerOptions options = {});

/// Construct a hypervisor on the paper's Xeon E5620 machine.
std::unique_ptr<hv::Hypervisor> make_hypervisor(
    SchedKind kind, std::uint64_t seed = 1, SchedulerOptions options = {},
    const numa::MachineConfig& machine = numa::MachineConfig::xeon_e5620());

/// The paper's standard VM set (Section V-A1):
///   Dom0: 2 GB, 4 VCPUs — the control domain; boots first (so its memory
///         and VCPUs sit on node 0) and runs bursty backend work.  Its
///         BOOST-priority wakes keep displacing long-running VCPUs off
///         node 0 — while VM memory stays put — which is where the
///         persistent anti-correlation behind Figure 1's >80% remote
///         ratios comes from;
///   VM1: 15 GB, 8 VCPUs — the measured VM (memory spans both nodes);
///   VM2: 5 GB, 8 VCPUs  — interfering workload twin;
///   VM3: 1 GB, 8 VCPUs  — hungry loops.
/// Memory comes from the fill-first allocator (Xen 4.0.1 behaviour).
struct StandardVms {
  hv::Domain* dom0 = nullptr;
  hv::Domain* vm1 = nullptr;
  hv::Domain* vm2 = nullptr;
  hv::Domain* vm3 = nullptr;
  /// Dom0's backend workload, already started.
  std::unique_ptr<wl::GuestOsTicks> dom0_backend;
};

/// VM memory sizes in GB; defaults are Section V-A's, Figure 1 uses 8/8/2.
struct VmSizes {
  int vm1_gb = 15;
  int vm2_gb = 5;
  int vm3_gb = 1;
};

StandardVms create_standard_vms(hv::Hypervisor& hv, VmSizes sizes = {});

/// All VCPUs of a domain, in index order.
std::vector<hv::Vcpu*> domain_vcpus(hv::Domain& domain);

/// How often run_until and run_cluster_until poll `done()`.
constexpr sim::Time kPollStep = sim::Time::ms(100);

/// Drive the engine until `done()` or `horizon`; checks every kPollStep.
/// Returns true when `done()` became true in time.
bool run_until(hv::Hypervisor& hv, const std::function<bool()>& done,
               sim::Time horizon);

}  // namespace vprobe::runner
