#include "runner/fleet.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "workload/hungry.hpp"
#include "workload/os_ticker.hpp"

namespace vprobe::runner {
namespace {

class BackgroundWorkload final : public cluster::Workload {
 public:
  BackgroundWorkload(hv::Hypervisor& hv, hv::Domain& dom,
                     const std::vector<BackgroundApp>& apps) {
    const auto vcpus = domain_vcpus(dom);
    for (const BackgroundApp& app : apps) {
      const auto from = static_cast<std::size_t>(app.from);
      if (from >= vcpus.size()) {
        throw std::invalid_argument("app 'from' beyond vm '" + dom.name() + "' vcpus");
      }
      const std::span<hv::Vcpu* const> subset(vcpus.begin() + static_cast<std::ptrdiff_t>(from),
                                              vcpus.end());
      if (app.hungry) {
        hogs_.push_back(std::make_unique<wl::HungryLoops>(hv, dom, subset));
      } else {
        ticks_.push_back(std::make_unique<wl::GuestOsTicks>(hv, dom, subset));
      }
    }
  }

  void start() override {
    for (auto& h : hogs_) h->start();
    for (auto& t : ticks_) t->start();
  }
  void stop() override {
    for (auto& h : hogs_) h->stop();
    for (auto& t : ticks_) t->stop();
  }

 private:
  std::vector<std::unique_ptr<wl::HungryLoops>> hogs_;
  std::vector<std::unique_ptr<wl::GuestOsTicks>> ticks_;
};

}  // namespace

cluster::WorkloadFactory background_workload(std::vector<BackgroundApp> apps) {
  return [apps = std::move(apps)](hv::Hypervisor& hv, hv::Domain& dom) {
    return std::make_unique<BackgroundWorkload>(hv, dom, apps);
  };
}

cluster::WorkloadFactory hungry_workload() {
  return background_workload({{.hungry = true}});
}

cluster::WorkloadFactory ticker_workload() {
  return background_workload({{.hungry = false}});
}

double hungry_dirty_rate(std::int64_t mem_bytes) {
  // A CPU burner re-touches roughly a quarter of its memory per second —
  // enough that pre-copy needs a few rounds but converges geometrically
  // for the churn-sized (<= a few GB) VMs that actually migrate.
  return 0.25 * static_cast<double>(mem_bytes);
}

double ticker_dirty_rate(std::int64_t mem_bytes) {
  // Housekeeping dirties a small fixed set (timer pages, run queues),
  // independent of VM size.
  return std::min(static_cast<double>(mem_bytes), 16.0 * 1024 * 1024);
}

cluster::SchedulerFactory scheduler_factory(SchedKind kind,
                                            SchedulerOptions options) {
  return [kind, options](int /*host_id*/) {
    return make_scheduler(kind, options);
  };
}

bool run_cluster_until(cluster::Cluster& cluster,
                       const std::function<bool()>& done, sim::Time horizon) {
  // Cluster::run_until dispatches per mode: the shared engine directly
  // when serial, the conservative-window synchronizer when sharded.  The
  // done() poll always runs between windows, with worker threads
  // quiescent, so it may read any host state.
  while (cluster.now() < horizon) {
    if (done && done()) return true;
    cluster.run_until(std::min(cluster.now() + kPollStep, horizon));
  }
  return done ? done() : true;
}

}  // namespace vprobe::runner
