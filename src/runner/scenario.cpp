#include "runner/scenario.hpp"

#include <array>
#include <stdexcept>
#include <utility>

#include "core/autonuma_sched.hpp"
#include "core/brm_sched.hpp"
#include "core/lb_sched.hpp"
#include "core/vcpu_p_sched.hpp"
#include "core/vprobe_sched.hpp"
#include "hv/credit.hpp"

namespace vprobe::runner {

const char* to_string(SchedKind kind) {
  switch (kind) {
    case SchedKind::kCredit: return "Credit";
    case SchedKind::kVprobe: return "vProbe";
    case SchedKind::kVcpuP:  return "VCPU-P";
    case SchedKind::kLb:     return "LB";
    case SchedKind::kBrm:    return "BRM";
    case SchedKind::kAutoNuma: return "AutoNUMA";
  }
  return "?";
}

namespace {

/// The scenario-file spellings, in all_schedulers() order; the single
/// source for both parsing and error listings.
constexpr std::array<std::pair<std::string_view, SchedKind>, 6> kSchedNames{{
    {"credit", SchedKind::kCredit},
    {"vprobe", SchedKind::kVprobe},
    {"vcpu_p", SchedKind::kVcpuP},
    {"lb", SchedKind::kLb},
    {"brm", SchedKind::kBrm},
    {"autonuma", SchedKind::kAutoNuma},
}};

}  // namespace

std::optional<SchedKind> sched_from_name(std::string_view name) {
  for (SchedKind kind : all_schedulers()) {
    if (name == to_string(kind)) return kind;
  }
  for (const auto& [spelling, kind] : kSchedNames) {
    if (name == spelling) return kind;
  }
  return std::nullopt;
}

std::string valid_sched_names() {
  std::string out;
  for (const auto& [spelling, kind] : kSchedNames) {
    if (!out.empty()) out += ", ";
    out += spelling;
  }
  return out;
}

std::span<const SchedKind> paper_schedulers() {
  static constexpr std::array kPaper = {SchedKind::kCredit, SchedKind::kVprobe,
                                        SchedKind::kVcpuP, SchedKind::kLb,
                                        SchedKind::kBrm};
  return kPaper;
}

std::span<const SchedKind> all_schedulers() {
  static constexpr std::array kAll = {SchedKind::kCredit,   SchedKind::kVprobe,
                                      SchedKind::kVcpuP,    SchedKind::kLb,
                                      SchedKind::kBrm,      SchedKind::kAutoNuma};
  return kAll;
}

std::unique_ptr<hv::Scheduler> make_scheduler(SchedKind kind,
                                              SchedulerOptions options) {
  core::VprobeScheduler::Options vopts;
  vopts.sampling_period = options.sampling_period;
  vopts.dynamic_bounds = options.dynamic_bounds;
  switch (kind) {
    case SchedKind::kCredit:
      return std::make_unique<hv::CreditScheduler>();
    case SchedKind::kVprobe:
      return std::make_unique<core::VprobeScheduler>(vopts);
    case SchedKind::kVcpuP:
      return std::make_unique<core::VcpuPScheduler>(vopts);
    case SchedKind::kLb:
      return std::make_unique<core::LbScheduler>(vopts);
    case SchedKind::kBrm: {
      core::BrmScheduler::Options bopts;
      bopts.sampling_period = options.sampling_period;
      return std::make_unique<core::BrmScheduler>(bopts);
    }
    case SchedKind::kAutoNuma: {
      core::AutoNumaScheduler::Options aopts;
      aopts.sampling_period = options.sampling_period;
      return std::make_unique<core::AutoNumaScheduler>(aopts);
    }
  }
  throw std::invalid_argument("make_scheduler: bad kind");
}

std::unique_ptr<hv::Hypervisor> make_hypervisor(
    SchedKind kind, std::uint64_t seed, SchedulerOptions options,
    const numa::MachineConfig& machine) {
  hv::Hypervisor::Config cfg;
  cfg.machine = machine;
  cfg.seed = seed;
  cfg.rate_cache = options.rate_cache;
  return std::make_unique<hv::Hypervisor>(cfg, make_scheduler(kind, options));
}

StandardVms create_standard_vms(hv::Hypervisor& hv, VmSizes sizes) {
  constexpr std::int64_t kGB = 1024ll * 1024 * 1024;
  StandardVms vms;
  // Creation order matters for the fill-first allocator: Dom0 boots first
  // and takes the bottom of node 0; VM1's 15 GB drains the rest of node 0
  // and spills onto node 1 ("split into two nodes", Section V-A1).
  vms.dom0 = &hv.create_domain("Dom0", 2 * kGB, 4, numa::PlacementPolicy::kFillFirst, 0);
  vms.vm1 = &hv.create_domain("VM1", sizes.vm1_gb * kGB, 8,
                              numa::PlacementPolicy::kFillFirst, 0);
  vms.vm2 = &hv.create_domain("VM2", sizes.vm2_gb * kGB, 8,
                              numa::PlacementPolicy::kFillFirst, 1);
  vms.vm3 = &hv.create_domain("VM3", sizes.vm3_gb * kGB, 8,
                              numa::PlacementPolicy::kFillFirst, 1);

  // Dom0's VCPUs are conventionally pinned low (node 0); its backend work
  // is bursty: ~0.4 ms of I/O backend processing every 2 ms per VCPU.
  std::vector<hv::Vcpu*> dom0_vcpus;
  for (std::size_t i = 0; i < vms.dom0->num_vcpus(); ++i) {
    hv::Vcpu& v = vms.dom0->vcpu(i);
    v.pcpu = static_cast<numa::PcpuId>(i % hv.topology().num_pcpus());
    dom0_vcpus.push_back(&v);
  }
  wl::GuestOsTicks::Config backend;
  backend.tick_interval = sim::Time::ms(2);
  backend.instructions_per_tick = 1e6;
  vms.dom0_backend = std::make_unique<wl::GuestOsTicks>(hv, *vms.dom0,
                                                        dom0_vcpus, backend);
  vms.dom0_backend->start();
  // VM1's 15 GB necessarily spans both 12 GB nodes ("split into two nodes",
  // Section V-A1); alternating guest allocation makes its applications'
  // data actually live on both — the "more variable and complicated
  // runtime environment" the paper configures on purpose.
  vms.vm1->memory().alternate_allocation(true);
  vms.vm2->memory().alternate_allocation(true);
  return vms;
}

std::vector<hv::Vcpu*> domain_vcpus(hv::Domain& domain) {
  std::vector<hv::Vcpu*> vcpus;
  vcpus.reserve(domain.num_vcpus());
  for (std::size_t i = 0; i < domain.num_vcpus(); ++i) {
    vcpus.push_back(&domain.vcpu(i));
  }
  return vcpus;
}

bool run_until(hv::Hypervisor& hv, const std::function<bool()>& done,
               sim::Time horizon) {
  auto& engine = hv.engine();
  while (engine.now() < horizon) {
    if (done()) return true;
    engine.run_until(std::min(engine.now() + kPollStep, horizon));
  }
  return done();
}

}  // namespace vprobe::runner
