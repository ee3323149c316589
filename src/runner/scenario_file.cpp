#include "runner/scenario_file.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "runner/fleet.hpp"
#include "workload/hungry.hpp"
#include "workload/kv_server.hpp"
#include "workload/npb.hpp"
#include "workload/open_loop.hpp"
#include "workload/os_ticker.hpp"
#include "workload/spec.hpp"
#include "workload/trace_app.hpp"

namespace vprobe::runner {
namespace {

std::invalid_argument err(int line, const std::string& what) {
  return std::invalid_argument("scenario line " + std::to_string(line) + ": " + what);
}

constexpr const char* kValidMachines = "xeon_e5620, four_node";
constexpr const char* kValidDirectives =
    "machine, machines, scheduler, seed, scale, horizon, sampling, vm, app, "
    "churn, balance, migrate, openloop, slo";

bool valid_machine_name(const std::string& name) {
  return name == "xeon_e5620" || name == "four_node";
}

numa::MachineConfig machine_by_name(const std::string& name) {
  return name == "four_node" ? numa::MachineConfig::four_node_server()
                             : numa::MachineConfig::xeon_e5620();
}

SchedKind parse_sched(const std::string& name, int line) {
  if (const auto kind = sched_from_name(name)) return *kind;
  throw err(line, "unknown scheduler '" + name + "' (valid: " +
                      valid_sched_names() + ")");
}

numa::PlacementPolicy parse_policy(const std::string& name, int line) {
  if (name == "fill_first") return numa::PlacementPolicy::kFillFirst;
  if (name == "striped") return numa::PlacementPolicy::kStriped;
  if (name == "on_node") return numa::PlacementPolicy::kOnNode;
  if (name == "first_touch") return numa::PlacementPolicy::kFirstTouch;
  throw err(line, "unknown placement policy '" + name + "'");
}

/// wl::parse_scaled, with the line number on a malformed value.
double number(const std::string& v, int line) {
  try {
    return wl::parse_scaled(v);
  } catch (const std::invalid_argument& e) {
    throw err(line, e.what());
  }
}

/// An integer value: a whole number that fits T (a plain cast would
/// truncate a fraction and is undefined out of range).  `what` names it in
/// the error ("vcpus=", "seed").
template <typename T>
T whole(const std::string& what, const std::string& v, int line) {
  const double x = number(v, line);
  // Within [-2^bits, 2^bits), bits = min(T's digits, 53): both bounds are
  // exact doubles, the range fits T, and every whole number in it is a
  // double, so no larger value is silently rounded to a neighbour.
  const int bits = std::min(std::numeric_limits<T>::digits,
                            std::numeric_limits<double>::digits);
  const double hi = std::ldexp(1.0, bits);
  const double lo = std::numeric_limits<T>::is_signed ? -hi : 0.0;
  if (!(x == std::floor(x) && x >= lo && x < hi)) {
    throw err(line, what + " must be a whole number in range, got " + v);
  }
  return static_cast<T>(x);
}

/// A positive, finite number.
double positive(const std::string& what, const std::string& v, int line) {
  const double x = number(v, line);
  if (!(x > 0.0 && std::isfinite(x))) {
    throw err(line, what + " must be a positive number, got " + v);
  }
  return x;
}

/// A 0/1 switch.
bool flag(const std::string& key, const std::string& v, int line) {
  const double x = number(v, line);
  if (x != 0.0 && x != 1.0) throw err(line, key + "= must be 0 or 1, got " + v);
  return x == 1.0;
}

/// The single argument of a directive line.
std::string only_arg(std::istringstream& words, const std::string& head, int line) {
  std::string arg;
  std::string extra;
  if (!(words >> arg)) throw err(line, head + " needs an argument");
  if (words >> extra) {
    throw err(line, head + " takes one argument, got extra '" + extra + "'");
  }
  return arg;
}

/// Split remaining words into key=value pairs.
std::map<std::string, std::string> keyvals(std::istringstream& words, int line) {
  std::map<std::string, std::string> out;
  std::string word;
  while (words >> word) {
    const auto eq = word.find('=');
    if (eq == std::string::npos) throw err(line, "expected key=value, got '" + word + "'");
    out[word.substr(0, eq)] = word.substr(eq + 1);
  }
  return out;
}

}  // namespace

ScenarioSpec parse_scenario(std::string_view text) {
  ScenarioSpec spec;
  std::istringstream lines{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream words(line);
    std::string head;
    if (!(words >> head)) continue;

    if (head == "machine") {
      spec.machine = only_arg(words, head, line_no);
      if (!valid_machine_name(spec.machine)) {
        throw err(line_no, "unknown machine '" + spec.machine +
                               "' (valid: " + std::string(kValidMachines) + ")");
      }
    } else if (head == "machines") {
      if (!spec.machines.empty()) throw err(line_no, "duplicate machines directive");
      std::string token;
      while (words >> token) {
        ScenarioSpec::MachineSpec machine;
        const auto star = token.find('*');
        machine.kind = token.substr(0, star);
        if (star != std::string::npos) {
          machine.count = whole<int>("machines count", token.substr(star + 1), line_no);
        }
        if (!valid_machine_name(machine.kind)) {
          throw err(line_no, "unknown machine '" + machine.kind +
                                 "' (valid: " + std::string(kValidMachines) + ")");
        }
        if (machine.count < 1) {
          throw err(line_no, "machine count must be >= 1 in '" + token + "'");
        }
        spec.machines.push_back(std::move(machine));
      }
      if (spec.machines.empty()) {
        throw err(line_no, "machines needs at least one name[*count]");
      }
    } else if (head == "scheduler") {
      spec.sched = parse_sched(only_arg(words, head, line_no), line_no);
    } else if (head == "seed") {
      spec.seed = whole<std::uint64_t>(head, only_arg(words, head, line_no), line_no);
    } else if (head == "scale") {
      spec.scale = positive(head, only_arg(words, head, line_no), line_no);
    } else if (head == "horizon") {
      spec.horizon_s = positive(head, only_arg(words, head, line_no), line_no);
    } else if (head == "sampling") {
      spec.sampling_s = positive(head, only_arg(words, head, line_no), line_no);
    } else if (head == "vm") {
      ScenarioSpec::VmSpec vm;
      for (const auto& [k, v] : keyvals(words, line_no)) {
        if (k == "name") {
          vm.name = v;
        } else if (k == "mem") {
          vm.mem_bytes = whole<std::int64_t>("mem=", v, line_no);
        } else if (k == "vcpus") {
          vm.vcpus = whole<int>("vcpus=", v, line_no);
        } else if (k == "policy") {
          vm.policy = parse_policy(v, line_no);
        } else if (k == "preferred") {
          vm.preferred = whole<int>("preferred=", v, line_no);
        } else if (k == "alternate") {
          vm.alternate = flag("alternate", v, line_no);
        } else if (k == "host") {
          vm.host = whole<int>("host=", v, line_no);
          if (vm.host < 0) throw err(line_no, "vm host= must be >= 0");
        } else {
          throw err(line_no, "unknown vm field '" + k + "'");
        }
      }
      if (vm.name.empty()) throw err(line_no, "vm needs name=");
      if (vm.mem_bytes <= 0) throw err(line_no, "vm needs mem=");
      if (vm.vcpus <= 0) throw err(line_no, "vm needs vcpus=");
      for (const auto& existing : spec.vms) {
        if (existing.name == vm.name) throw err(line_no, "duplicate vm '" + vm.name + "'");
      }
      spec.vms.push_back(std::move(vm));
    } else if (head == "app") {
      ScenarioSpec::AppSpec app;
      for (const auto& [k, v] : keyvals(words, line_no)) {
        if (k == "vm") {
          app.vm = v;
        } else if (k == "kind") {
          app.kind = v;
        } else if (k == "profile") {
          app.profile = v;
        } else if (k == "count") {
          app.count = whole<int>("count=", v, line_no);
        } else if (k == "threads") {
          app.threads = whole<int>("threads=", v, line_no);
        } else if (k == "from") {
          app.from = whole<int>("from=", v, line_no);
        } else if (k == "measure") {
          app.measure = flag("measure", v, line_no);
        } else if (k == "instr") {
          app.instr = number(v, line_no);
        } else if (k == "batch") {
          app.batch = whole<int>("batch=", v, line_no);
        } else {
          throw err(line_no, "unknown app field '" + k + "'");
        }
      }
      if (app.kind != "spec" && app.kind != "npb" && app.kind != "hungry" &&
          app.kind != "ticks" && app.kind != "kv") {
        throw err(line_no, "unknown app kind '" + app.kind + "'");
      }
      const bool vm_known =
          std::any_of(spec.vms.begin(), spec.vms.end(),
                      [&](const auto& vm) { return vm.name == app.vm; });
      if (!vm_known) throw err(line_no, "app references unknown vm '" + app.vm + "'");
      if ((app.kind == "spec" || app.kind == "npb") && !wl::has_profile(app.profile)) {
        throw err(line_no, "unknown profile '" + app.profile + "'");
      }
      if (app.kind == "kv") {
        if (app.profile.empty()) app.profile = "memcached";
        if (!wl::has_profile(app.profile)) {
          throw err(line_no, "unknown profile '" + app.profile + "'");
        }
        if (app.threads < 1) throw err(line_no, "kv app needs threads >= 1");
        if (app.instr <= 0) throw err(line_no, "kv app needs instr > 0");
        if (app.batch < 1) throw err(line_no, "kv app needs batch >= 1");
      }
      spec.apps.push_back(std::move(app));
    } else if (head == "churn") {
      if (spec.churn_enabled) throw err(line_no, "duplicate churn directive");
      spec.churn_enabled = true;
      spec.churn.seed = 0;  // 0 = derive from the scenario seed at run time
      for (const auto& [k, v] : keyvals(words, line_no)) {
        if (k == "seed") {
          spec.churn.seed = whole<std::uint64_t>("seed=", v, line_no);
        } else if (k == "start") {
          spec.churn.start_after = sim::Time::seconds(number(v, line_no));
        } else if (k == "interarrival") {
          spec.churn.mean_interarrival = sim::Time::seconds(number(v, line_no));
        } else if (k == "lifetime") {
          spec.churn.mean_lifetime = sim::Time::seconds(number(v, line_no));
        } else if (k == "pause_prob") {
          spec.churn.pause_probability = number(v, line_no);
        } else if (k == "pause") {
          spec.churn.mean_pause = sim::Time::seconds(number(v, line_no));
        } else if (k == "max_arrivals") {
          spec.churn.max_arrivals = whole<int>("max_arrivals=", v, line_no);
        } else if (k == "max_live") {
          spec.churn.max_live = whole<int>("max_live=", v, line_no);
        } else if (k == "vcpus_min") {
          spec.churn.min_vcpus = whole<int>("vcpus_min=", v, line_no);
        } else if (k == "vcpus_max") {
          spec.churn.max_vcpus = whole<int>("vcpus_max=", v, line_no);
        } else if (k == "mem_min") {
          spec.churn.min_mem_bytes = whole<std::int64_t>("mem_min=", v, line_no);
        } else if (k == "mem_max") {
          spec.churn.max_mem_bytes = whole<std::int64_t>("mem_max=", v, line_no);
        } else if (k == "tickers") {
          spec.churn.ticker_fraction = number(v, line_no);
        } else {
          throw err(line_no, "unknown churn field '" + k + "'");
        }
      }
      if (spec.churn.mean_interarrival <= sim::Time::zero() ||
          spec.churn.mean_lifetime <= sim::Time::zero()) {
        throw err(line_no, "churn interarrival/lifetime must be positive");
      }
      const ChurnOptions& c = spec.churn;
      if (c.start_after < sim::Time::zero() || c.mean_pause < sim::Time::zero()) {
        throw err(line_no, "churn start/pause must not be negative");
      }
      if (!(c.pause_probability >= 0.0 && c.pause_probability <= 1.0) ||
          !(c.ticker_fraction >= 0.0 && c.ticker_fraction <= 1.0)) {
        throw err(line_no, "churn pause_prob/tickers must lie in [0, 1]");
      }
      if (c.max_live < 1) throw err(line_no, "churn needs max_live >= 1");
      if (c.min_vcpus < 1 || c.max_vcpus < c.min_vcpus) {
        throw err(line_no, "churn needs 1 <= vcpus_min <= vcpus_max");
      }
      if (c.min_mem_bytes <= 0 || c.max_mem_bytes < c.min_mem_bytes) {
        throw err(line_no, "churn needs 0 < mem_min <= mem_max");
      }
    } else if (head == "openloop") {
      if (spec.openloop_enabled) throw err(line_no, "duplicate openloop directive");
      spec.openloop_enabled = true;
      for (const auto& [k, v] : keyvals(words, line_no)) {
        if (k == "rps") {
          spec.openloop.rps = number(v, line_no);
        } else if (k == "start") {
          spec.openloop.start_s = number(v, line_no);
        } else if (k == "seed") {
          spec.openloop.seed = whole<std::uint64_t>("seed=", v, line_no);
        } else if (k == "requests") {
          spec.openloop.max_requests =
              whole<std::uint64_t>("requests=", v, line_no);
        } else if (k == "spike_at") {
          spec.openloop.spike_at_s = number(v, line_no);
        } else if (k == "spike_until") {
          spec.openloop.spike_until_s = number(v, line_no);
        } else if (k == "spike_x") {
          spec.openloop.spike_x = number(v, line_no);
        } else if (k == "diurnal_period") {
          spec.openloop.diurnal_period_s = number(v, line_no);
        } else if (k == "diurnal_amp") {
          spec.openloop.diurnal_amp = number(v, line_no);
        } else if (k == "balance") {
          if (v != "rr" && v != "p2c") {
            throw err(line_no, "openloop balance must be rr or p2c");
          }
          spec.openloop.balance = v;
        } else {
          throw err(line_no, "unknown openloop field '" + k + "'");
        }
      }
      if (spec.openloop.rps < 0) throw err(line_no, "openloop rps must be >= 0");
      if (spec.openloop.start_s < 0) throw err(line_no, "openloop start must be >= 0");
      if (spec.openloop.spike_at_s >= 0 &&
          spec.openloop.spike_until_s <= spec.openloop.spike_at_s) {
        throw err(line_no, "openloop spike_until must be > spike_at");
      }
      if (spec.openloop.spike_x < 0) throw err(line_no, "openloop spike_x must be >= 0");
    } else if (head == "slo") {
      if (spec.slo_ms > 0) throw err(line_no, "duplicate slo directive");
      for (const auto& [k, v] : keyvals(words, line_no)) {
        if (k == "ms") {
          spec.slo_ms = number(v, line_no);
        } else {
          throw err(line_no, "unknown slo field '" + k + "'");
        }
      }
      if (spec.slo_ms <= 0) throw err(line_no, "slo needs ms= > 0");
    } else if (head == "balance") {
      if (spec.balance_enabled) throw err(line_no, "duplicate balance directive");
      spec.balance_enabled = true;
      for (const auto& [k, v] : keyvals(words, line_no)) {
        if (k == "period") {
          spec.balance_period_s = number(v, line_no);
        } else if (k == "threshold") {
          spec.balance_threshold = number(v, line_no);
        } else {
          throw err(line_no, "unknown balance field '" + k + "'");
        }
      }
      if (spec.balance_period_s <= 0) throw err(line_no, "balance period must be positive");
    } else if (head == "migrate") {
      ScenarioSpec::MigrateSpec mig;
      mig.to_host = -1;
      for (const auto& [k, v] : keyvals(words, line_no)) {
        if (k == "vm") {
          mig.vm = v;
        } else if (k == "to") {
          mig.to_host = whole<int>("to=", v, line_no);
        } else if (k == "at") {
          mig.at_s = number(v, line_no);
        } else {
          throw err(line_no, "unknown migrate field '" + k + "'");
        }
      }
      if (mig.vm.empty()) throw err(line_no, "migrate needs vm=");
      if (mig.to_host < 0) throw err(line_no, "migrate needs to= (host id)");
      if (mig.at_s < 0) throw err(line_no, "migrate at= must be >= 0");
      const bool vm_known =
          std::any_of(spec.vms.begin(), spec.vms.end(),
                      [&](const auto& vm) { return vm.name == mig.vm; });
      if (!vm_known) throw err(line_no, "migrate references unknown vm '" + mig.vm + "'");
      spec.migrations.push_back(std::move(mig));
    } else {
      throw err(line_no, "unknown directive '" + head + "' (valid: " +
                             std::string(kValidDirectives) + ")");
    }
  }
  if (spec.vms.empty()) throw std::invalid_argument("scenario defines no VMs");
  if (spec.apps.empty()) throw std::invalid_argument("scenario defines no apps");
  const bool any_kv = std::any_of(spec.apps.begin(), spec.apps.end(),
                                  [](const auto& a) { return a.kind == "kv"; });
  if (spec.openloop_enabled && !any_kv) {
    throw std::invalid_argument("openloop requires at least one kind=kv app");
  }
  if (spec.cluster_mode()) {
    const int hosts = spec.num_hosts();
    for (const auto& vm : spec.vms) {
      if (vm.host >= hosts) {
        throw std::invalid_argument("vm '" + vm.name + "' pinned to host " +
                                    std::to_string(vm.host) + " but the fleet has " +
                                    std::to_string(hosts) + " hosts");
      }
    }
    for (const auto& mig : spec.migrations) {
      if (mig.to_host >= hosts) {
        throw std::invalid_argument("migrate to=" + std::to_string(mig.to_host) +
                                    " but the fleet has " + std::to_string(hosts) +
                                    " hosts");
      }
    }
  } else {
    for (const auto& vm : spec.vms) {
      if (vm.host >= 0) {
        throw std::invalid_argument(
            "vm host= requires a machines directive (cluster mode)");
      }
    }
    if (!spec.migrations.empty()) {
      throw std::invalid_argument(
          "migrate requires a machines directive (cluster mode)");
    }
    if (spec.balance_enabled) {
      throw std::invalid_argument(
          "balance requires a machines directive (cluster mode)");
    }
  }
  return spec;
}

stats::RunMetrics run_scenario(const ScenarioSpec& spec) {
  SchedulerOptions opts;
  opts.sampling_period = sim::Time::seconds(spec.sampling_s);

  // A `machine X` spec is the one-host fleet {X, 1}: serial mode, so its
  // host runs on the control engine with child_seed(seed, 0) == seed and
  // replays the single-machine event stream (ClusterOfOne.*).
  const std::vector<ScenarioSpec::MachineSpec> machines =
      spec.cluster_mode() ? spec.machines
                          : std::vector<ScenarioSpec::MachineSpec>{{spec.machine, 1}};
  std::vector<cluster::HostSpec> host_specs;
  std::vector<std::string> host_kinds;
  for (const auto& m : machines) {
    for (int i = 0; i < m.count; ++i) {
      cluster::HostSpec host;
      host.machine = machine_by_name(m.kind);
      host_specs.push_back(std::move(host));
      host_kinds.push_back(m.kind);
    }
  }

  // A single machine reports no per-host breakdown, so its JSON and CSV
  // keep the single-machine shape (is_cluster_run() stays false).  Nothing
  // reads its trace either: the host gets the smallest ring and records
  // nothing into it.
  const bool per_host = spec.cluster_mode();

  cluster::Config ccfg;
  ccfg.seed = spec.seed;
  if (!per_host) ccfg.trace_capacity = 1;
  ccfg.sim_threads = spec.sim_threads;
  ccfg.window_batch = spec.window_batch;
  ccfg.host_template.rate_cache = opts.rate_cache;
  if (spec.balance_enabled) {
    ccfg.balance_period = sim::Time::seconds(spec.balance_period_s);
    ccfg.balance_threshold = spec.balance_threshold;
  }
  cluster::Cluster fleet(ccfg, host_specs, scheduler_factory(spec.sched, opts));
  if (!per_host) fleet.host(0).set_tracer(nullptr);

  // Admit the declared VMs in file order.  In a fleet, a VM whose apps are
  // all background (hungry/ticks) is cluster-managed and rebindable — the
  // control plane may live-migrate it; VMs running measured spec/npb apps
  // keep their guest state outside the control plane and stay put.  A
  // single machine has nowhere to migrate to, so none of its VMs is
  // movable and each background app keeps its own staggered start.
  std::map<std::string, std::vector<ScenarioSpec::AppSpec>> apps_by_vm;
  for (const auto& app : spec.apps) apps_by_vm[app.vm].push_back(app);

  std::map<std::string, int> vm_ids;
  for (const auto& vm : spec.vms) {
    const auto apps_it = apps_by_vm.find(vm.name);
    const bool movable =
        spec.cluster_mode() && apps_it != apps_by_vm.end() &&
        !apps_it->second.empty() &&
        std::all_of(apps_it->second.begin(), apps_it->second.end(),
                    [](const auto& a) { return a.kind == "hungry" || a.kind == "ticks"; });
    cluster::VmSpec cvm;
    cvm.name = vm.name;
    cvm.mem_bytes = vm.mem_bytes;
    cvm.vcpus = vm.vcpus;
    cvm.policy = vm.policy;
    cvm.preferred = static_cast<numa::NodeId>(vm.preferred);
    cvm.alternate = vm.alternate;
    cvm.host = vm.host;
    if (movable) {
      std::vector<BackgroundApp> apps;
      bool any_hungry = false;
      for (const auto& app : apps_it->second) {
        apps.push_back({.hungry = app.kind == "hungry", .from = app.from});
        any_hungry = any_hungry || apps.back().hungry;
      }
      cvm.workload = background_workload(std::move(apps));
      cvm.dirty_bytes_per_s = any_hungry ? hungry_dirty_rate(vm.mem_bytes)
                                         : ticker_dirty_rate(vm.mem_bytes);
      cvm.autostart = false;  // staggered via start_vm below
    }
    const int id = fleet.admit(std::move(cvm));
    if (id < 0) {
      throw std::invalid_argument("vm '" + vm.name + "' does not fit the fleet");
    }
    vm_ids[vm.name] = id;
  }

  // Build the externally-owned apps (spec/npb/kv, and the background apps
  // of every VM that is not movable) against each VM's admitted domain and
  // host.
  std::vector<std::unique_ptr<wl::SpecApp>> spec_apps;
  std::vector<std::unique_ptr<wl::NpbApp>> npb_apps;
  std::vector<std::unique_ptr<wl::HungryLoops>> hogs;
  std::vector<std::unique_ptr<wl::GuestOsTicks>> ticks;
  std::vector<std::unique_ptr<wl::RequestServer>> kv_servers;
  std::vector<int> kv_server_hosts;  ///< admission host of each kv server
  struct Measured {
    std::function<bool()> finished;
    std::function<double()> runtime_s;
    std::string name;
    int vm_id;
  };
  std::vector<Measured> measured;
  const bool any_marked = std::any_of(spec.apps.begin(), spec.apps.end(),
                                      [](const auto& a) { return a.measure; });

  // Starters are host-local events: each is scheduled on its VM's
  // admission host's engine (host_engine), not the control engine, so a
  // sharded run fires them in the same per-host order as the serial path
  // even when a start slot collides with that host's tick grid
  // (docs/PDES.md).  In serial mode host_engine IS the shared engine.
  struct Starter {
    int host = 0;
    std::function<void()> fn;
  };
  std::vector<Starter> starters;
  std::vector<std::string> started_movables;
  for (const auto& app : spec.apps) {
    const int vm_id = vm_ids.at(app.vm);
    const int host_id = fleet.host_of(vm_id);
    hv::Hypervisor& hv = fleet.host(host_id);
    hv::Domain& dom = *fleet.domain_of(vm_id);
    bool movable = false;
    for (const auto& view : fleet.vms()) {
      if (view.id == vm_id) {
        movable = view.movable;
        break;
      }
    }
    if (movable) {
      // Cluster-managed VM: one staggered start for the whole VM, at the
      // slot of its first app.
      if (std::find(started_movables.begin(), started_movables.end(), app.vm) ==
          started_movables.end()) {
        started_movables.push_back(app.vm);
        starters.push_back({host_id, [&fleet, vm_id] { fleet.start_vm(vm_id); }});
      }
      continue;
    }
    auto vcpus = domain_vcpus(dom);
    const auto from = static_cast<std::size_t>(app.from);
    if (from >= vcpus.size()) {
      throw std::invalid_argument("app 'from' beyond vm '" + app.vm + "' vcpus");
    }
    const bool measure = app.measure || !any_marked;
    if (app.kind == "spec") {
      for (int i = 0; i < app.count; ++i) {
        const std::size_t slot = from + static_cast<std::size_t>(i);
        if (slot >= vcpus.size()) {
          throw std::invalid_argument("too many spec instances for vm '" + app.vm + "'");
        }
        spec_apps.push_back(std::make_unique<wl::SpecApp>(
            hv, dom, *vcpus[slot], app.profile, spec.scale,
            app.vm + ":" + app.profile + "#" + std::to_string(i)));
        wl::SpecApp* sa = spec_apps.back().get();
        starters.push_back({host_id, [sa] { sa->start(); }});
        if (measure) {
          measured.push_back({[sa] { return sa->finished(); },
                              [sa] { return sa->runtime().to_seconds(); },
                              sa->name(), vm_id});
        }
      }
    } else if (app.kind == "npb") {
      wl::NpbApp::Config ncfg;
      ncfg.profile = app.profile;
      ncfg.threads = app.threads;
      ncfg.instr_scale = spec.scale;
      ncfg.name = app.vm + ":" + app.profile;
      std::vector<hv::Vcpu*> subset(vcpus.begin() + static_cast<std::ptrdiff_t>(from),
                                    vcpus.end());
      npb_apps.push_back(std::make_unique<wl::NpbApp>(hv, dom, ncfg, subset));
      wl::NpbApp* na = npb_apps.back().get();
      starters.push_back({host_id, [na] { na->start(); }});
      if (measure) {
        measured.push_back({[na] { return na->finished(); },
                            [na] { return na->runtime().to_seconds(); },
                            na->name(), vm_id});
      }
    } else if (app.kind == "kv") {
      wl::RequestServer::Config kcfg;
      kcfg.profile = app.profile;
      kcfg.workers = app.threads;
      kcfg.instr_per_request = app.instr;
      kcfg.max_batch = app.batch;
      kcfg.name = app.vm + ":kv";
      std::vector<hv::Vcpu*> subset(vcpus.begin() + static_cast<std::ptrdiff_t>(from),
                                    vcpus.end());
      kv_servers.push_back(
          std::make_unique<wl::RequestServer>(hv, dom, kcfg, subset));
      if (spec.slo_ms > 0) {
        kv_servers.back()->set_slo_threshold(spec.slo_ms / 1e3);
      }
      kv_server_hosts.push_back(host_id);
      // No starter: workers park blocked until the first submit wakes them.
    } else if (app.kind == "hungry") {
      std::vector<hv::Vcpu*> subset(vcpus.begin() + static_cast<std::ptrdiff_t>(from),
                                    vcpus.end());
      hogs.push_back(std::make_unique<wl::HungryLoops>(hv, dom, subset));
      wl::HungryLoops* h = hogs.back().get();
      starters.push_back({host_id, [h] { h->start(); }});
    } else {  // ticks
      std::vector<hv::Vcpu*> subset(vcpus.begin() + static_cast<std::ptrdiff_t>(from),
                                    vcpus.end());
      ticks.push_back(std::make_unique<wl::GuestOsTicks>(hv, dom, subset));
      wl::GuestOsTicks* t = ticks.back().get();
      starters.push_back({host_id, [t] { t->start(); }});
    }
  }

  if (!spec.cluster_mode() && measured.empty() && !spec.openloop_enabled) {
    // A fleet may be a pure background run and a serving-only scenario is
    // horizon-bounded by design; a single machine must measure something.
    throw std::invalid_argument("scenario has nothing to measure");
  }

  fleet.start();
  int launch = 0;
  for (auto& starter : starters) {
    fleet.host_engine(starter.host)
        .schedule(sim::Time::ms(10 * launch++), starter.fn);
  }

  // Scripted cross-host live migrations.
  for (const auto& mig : spec.migrations) {
    const std::string name = mig.vm;
    const int to = mig.to_host;
    fleet.engine().schedule_at(
        sim::Time::seconds(mig.at_s), [&fleet, name, to] {
          const int id = fleet.find_vm_by_name(name);
          if (id >= 0) fleet.migrate(id, to);
        });
  }

  // Dynamic background churn, through the control plane: the admission
  // filter places or refuses every arrival, a single machine included.
  std::unique_ptr<ChurnDriver> churn;
  if (spec.churn_enabled) {
    ChurnOptions copts = spec.churn;
    if (copts.seed == 0) copts.seed = spec.seed;
    churn = std::make_unique<ChurnDriver>(fleet, copts);
    churn->start();
  }

  // Open-loop traffic: a control-plane driver like the ChurnDriver, so its
  // arrival events ride the PDES synchronizer's coupling points and sharded
  // runs stay bit-identical to serial.  Declared after `fleet` and
  // `kv_servers` so it dies (cancelling its pending arrival) first.
  std::unique_ptr<wl::OpenLoopClient> open_loop;
  if (spec.openloop_enabled) {
    if (kv_servers.empty()) {
      throw std::invalid_argument("openloop requires at least one kind=kv app");
    }
    std::vector<wl::RequestServer*> targets;
    targets.reserve(kv_servers.size());
    for (const auto& s : kv_servers) targets.push_back(s.get());
    wl::OpenLoopClient::Config ocfg;
    ocfg.rps = spec.openloop.rps;
    ocfg.start_s = spec.openloop.start_s;
    ocfg.seed = spec.openloop.seed != 0 ? spec.openloop.seed : spec.seed;
    ocfg.max_requests = spec.openloop.max_requests;
    ocfg.spike_at_s = spec.openloop.spike_at_s;
    ocfg.spike_until_s = spec.openloop.spike_until_s;
    ocfg.spike_x = spec.openloop.spike_x;
    ocfg.diurnal_period_s = spec.openloop.diurnal_period_s;
    ocfg.diurnal_amp = spec.openloop.diurnal_amp;
    ocfg.lazy = spec.lazy_arrivals;
    ocfg.balance = spec.openloop.balance == "p2c"
                       ? wl::OpenLoopClient::Config::Balance::kP2c
                       : wl::OpenLoopClient::Config::Balance::kRoundRobin;
    open_loop = std::make_unique<wl::OpenLoopClient>(fleet.engine(), ocfg,
                                                     std::move(targets));
    open_loop->start();
  }

  // With nothing measured (a pure background fleet, or serving only) the
  // run is horizon-bounded by design, not incomplete.
  const bool have_measured = !measured.empty();
  const bool done = run_cluster_until(
      fleet,
      have_measured
          ? std::function<bool()>([&] {
              return std::all_of(measured.begin(), measured.end(),
                                 [](const Measured& m) { return m.finished(); });
            })
          : std::function<bool()>(),
      sim::Time::seconds(spec.horizon_s));

  stats::RunMetrics metrics;
  metrics.scheduler = to_string(spec.sched);
  metrics.workload = "scenario";
  metrics.completed = done;
  pmu::CounterSet counters;
  std::vector<int> counted;
  for (const Measured& m : measured) {
    metrics.app_runtime_s[m.name] = m.finished() ? m.runtime_s() : 0.0;
    if (std::find(counted.begin(), counted.end(), m.vm_id) == counted.end()) {
      counted.push_back(m.vm_id);
      if (hv::Domain* dom = fleet.domain_of(m.vm_id)) {
        counters += dom->total_counters();
      }
    }
  }
  metrics.finalize();
  metrics.total_mem_accesses = counters.total_mem_accesses();
  metrics.remote_mem_accesses = counters.remote_accesses;

  double busy_total = 0.0;
  double overhead_total = 0.0;
  for (int id = 0; id < fleet.num_hosts(); ++id) {
    hv::Hypervisor& hv = fleet.host(id);
    metrics.migrations += hv.total_migrations();
    metrics.cross_node_migrations += hv.total_cross_node_migrations();
    busy_total += hv.total_busy_time().to_seconds();
    overhead_total += hv.overhead().paper_overhead().to_seconds();

    if (!per_host) continue;
    stats::HostMetrics host;
    host.name = fleet.host_name(id);
    host.machine = host_kinds[static_cast<std::size_t>(id)];
    host.domains = static_cast<int>(hv.domains().size());
    host.vcpus = static_cast<int>(hv.all_vcpus().size());
    host.busy_s = hv.total_busy_time().to_seconds();
    host.migrations = hv.total_migrations();
    host.cross_node_migrations = hv.total_cross_node_migrations();
    host.trace_records = fleet.tracer(id).total_recorded();
    host.trace_digest = fleet.tracer(id).digest();
    metrics.hosts.push_back(std::move(host));
  }
  metrics.overhead_fraction = busy_total > 0 ? overhead_total / busy_total : 0.0;
  metrics.sim_seconds = fleet.now().to_seconds();

  // Serving rollup: merge each server's histogram into the fleet-level
  // distribution and, in a fleet, its admission host's slice (fixed file
  // order, so the float min/max/sum side-stats accumulate deterministically
  // too).
  if (!kv_servers.empty()) {
    metrics.slo_threshold_s = spec.slo_ms / 1e3;
    std::uint64_t served = 0;
    for (std::size_t i = 0; i < kv_servers.size(); ++i) {
      const wl::RequestServer& s = *kv_servers[i];
      metrics.latency.merge(s.latency_hist());
      metrics.slo_violations += s.slo_violations();
      served += s.served();
      if (!per_host) continue;
      auto& host =
          metrics.hosts[static_cast<std::size_t>(kv_server_hosts[i])];
      host.latency.merge(s.latency_hist());
      host.slo_violations += s.slo_violations();
    }
    if (metrics.sim_seconds > 0) {
      metrics.throughput_rps =
          static_cast<double>(served) / metrics.sim_seconds;
    }
    // Arrival-path accounting: client-side events (one per arrival eager,
    // one per block boundary lazy) plus server-side materialization events,
    // and the requests delivered without an engine event of their own.
    if (open_loop) {
      open_loop->check_conservation();
      metrics.arrival_events = open_loop->arrival_events();
    }
    for (const auto& s : kv_servers) {
      metrics.arrival_events += s->arrival_events();
      metrics.arrivals_coalesced += s->arrivals_coalesced();
    }
  }

  metrics.cluster.admitted = fleet.admitted();
  metrics.cluster.rejected = fleet.rejected();
  metrics.cluster.migrations_started = fleet.migrations_started();
  metrics.cluster.migrations_completed = fleet.migrations_completed();
  metrics.cluster.migrations_rejected = fleet.migrations_rejected();
  metrics.cluster.precopy_rounds = fleet.precopy_rounds();
  metrics.cluster.migrated_bytes = fleet.migrated_bytes();
  metrics.cluster.balance_actions = fleet.balance_actions();
  metrics.cluster.fleet_digest = fleet.fleet_digest();
  const cluster::SyncStats sync = fleet.sync_stats();
  metrics.cluster.sync_windows = sync.windows;
  metrics.cluster.sync_windows_coalesced = sync.windows_coalesced;
  metrics.cluster.sync_control_events = sync.control_events;
  metrics.cluster.sync_barriers = sync.barriers;
  metrics.cluster.sync_shard_dispatches = sync.shard_dispatches;
  metrics.cluster.sync_shard_skips = sync.shard_skips;
  metrics.cluster.pool_wakeups = sync.pool_wakeups;
  metrics.cluster.pool_spin_grabs = sync.pool_spin_grabs;
  metrics.cluster.pool_parks = sync.pool_parks;
  return metrics;
}

}  // namespace vprobe::runner
