// perf_suite: the simulator's benchmark.  Four closed-loop workloads
// (workloads.hpp), each run in its own forked child so its peak RSS is its
// own; end-to-end host metrics from untraced reps, per-layer metrics from a
// separate traced run, and every simulated output checked against recorded
// digests.  See perfsuite/PERF_SUITE.md for the method.
//
//   perf_suite [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//              [--json PATH] [--trace-out PATH] [--smoke]
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}: end-to-end metrics with --trace 0, per-layer ones
// with --trace 1 (metric names are prefixed "<workload>." when more than
// one workload runs).
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/json.hpp"
#include "trace/digest.hpp"
#include "workloads.hpp"

namespace perfsuite {
namespace {

using Clock = std::chrono::steady_clock;
using vprobe::stats::RunMetrics;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kDefaultReps = 5;        ///< timed reps without --seconds
constexpr int kMinTimedReps = 3;       ///< floor under --seconds
constexpr int kSetupPasses = 9;        ///< set-up passes, at least ...
constexpr double kSetupSeconds = 1.0;  ///< ... and for at least this long

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// -- Metric declarations ------------------------------------------------------

struct MetricDecl {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, measured with tracing off.  peak_rss_mb comes from
/// the parent (wait4 on the workload's child); the rest from the child.
constexpr MetricDecl kEndToEnd[] = {
    {"wall_s", "s"},       {"cpu_s", "s"},          {"sim_s_per_s", "sim-s/s"},
    {"setup_s", "s"},      {"peak_rss_mb", "MB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sched.do_schedule.calls", "count"},
    {"sched.do_schedule.ns", "ns"},
    {"sched.wake.ns", "ns"},
    {"sched.sleep.ns", "ns"},
    {"sched.tick.ns", "ns"},
    {"sched.accounting.ns", "ns"},
    {"sched.requeue.ns", "ns"},
    {"sched.share", "fraction"},
    {"run.rest_ns", "ns"},
    {"core.partition_rounds", "count"},
    {"core.partition_moves", "count"},
    {"perf.rate_lookups", "count"},
    {"perf.rate_hit_frac", "fraction"},
    {"wl.arrival_events", "count"},
    {"wl.arrivals_coalesced", "count"},
    {"wl.requests", "count"},
    {"wl.events_per_request", "events/req"},
    {"pdes.windows", "count"},
    {"pdes.windows_coalesced", "count"},
    {"pdes.barriers", "count"},
    {"pdes.shard_dispatches", "count"},
    {"pdes.shard_skips", "count"},
    {"pdes.pool_wakeups", "count"},
    {"pdes.pool_parks", "count"},
    {"pdes.pool_spin_grabs", "count"},
    {"cluster.migrations_completed", "count"},
    {"cluster.precopy_rounds", "count"},
    {"runner.parse_ms", "ms"},
    {"stats.json_us", "us"},
    {"trace.records", "count"},
    {"run.slices", "count"},
    {"run.slice_ms.p50", "ms"},
    {"run.slice_ms.p99", "ms"},
    {"trace.overhead_frac", "fraction"},
    {"trace.timer_ns", "ns"},
};

/// Per-layer counts that must repeat exactly between traced reps (the
/// pool_* handoff counts depend on OS thread timing and are exempt).
const std::set<std::string> kDeterministicCounts = {
    "sim.events",           "sched.do_schedule.calls", "core.partition_rounds",
    "core.partition_moves", "perf.rate_lookups",       "wl.arrival_events",
    "wl.arrivals_coalesced", "wl.requests",            "pdes.windows",
    "pdes.windows_coalesced", "pdes.barriers",         "pdes.shard_dispatches",
    "pdes.shard_skips",     "cluster.migrations_completed",
    "cluster.precopy_rounds", "trace.records",         "run.slices",
};

// -- Order statistics -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Quartiles as Python's statistics.quantiles(v, n=4) computes them (the
/// default "exclusive" method), so the suite and the spread check agree.
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  auto q = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

Summary summarize(const std::vector<double>& v) {
  const auto [q1, q3] = quartiles(v);
  return {median(v), q1, q3, v.size()};
}

/// A rep's total from per-simulation order statistics: each simulation's
/// median (and quartiles) across reps, summed over the rep.  A host
/// slowdown lasting part of one rep then moves only the simulations it
/// overlapped, and only if it recurs in most reps.
Summary sum_of_simulations(const std::vector<std::vector<double>>& per_sim) {
  Summary total;
  for (const std::vector<double>& samples : per_sim) {
    const Summary s = summarize(samples);
    total.median += s.median;
    total.q1 += s.q1;
    total.q3 += s.q3;
    total.n = s.n;
  }
  return total;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Host cost of an empty span: two back-to-back steady_clock reads.
double calibrate_timer_ns() {
  std::vector<double> batches;
  for (int b = 0; b < 51; ++b) {
    std::int64_t sum = 0;
    for (int i = 0; i < 1000; ++i) {
      const auto a = Clock::now();
      const auto c = Clock::now();
      sum += std::chrono::duration_cast<std::chrono::nanoseconds>(c - a).count();
    }
    batches.push_back(static_cast<double>(sum) / 1000.0);
  }
  return median(batches);
}

// -- Recorded digests -------------------------------------------------------------

/// "<workload> <seed> <hex>" lines; smoke sizes are keyed "smoke:<workload>".
std::map<std::string, std::uint64_t> load_digests(const char* path) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string workload;
    std::string seed;
    std::string hex;
    if (words >> workload >> seed >> hex) {
      out[workload + " " + seed] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return out;
}

// -- Options ------------------------------------------------------------------------

struct Options {
  std::string workload;  ///< empty = all four
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;  ///< 0 = fixed rep count
  bool trace = false;
  bool smoke = false;
  std::string json_path;
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "perf_suite: %s (see --help)\n", what.c_str());
  std::exit(2);
}

void print_help() {
  std::printf(
      "perf_suite — end-to-end and per-layer host cost of the simulator\n\n"
      "  --workload NAME   paper_mix | spike_serving | saturated_1m | fleet_pdes\n"
      "                    (default: all four, one forked child each)\n"
      "  --seed S          base seed; every workload shifts its seeds by S (default 1)\n"
      "  --seconds N       timed phase length per workload (default: %d reps)\n"
      "  --trace 0|1       1 = traced run: per-layer metrics via the replicas\n"
      "  --json PATH       write every reported value as JSON\n"
      "  --trace-out PATH  write the traced run's spans as JSON lines\n"
      "  --smoke           tiny sizes: replica == entry point, recorded digests,\n"
      "                    metric names, zero failures (exit 1 on any miss)\n"
      "Flags take --k=v or --k v; unknown flags and malformed values exit 2.\n",
      kDefaultReps);
}

std::uint64_t parse_u64(const std::string& key, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0' || errno == ERANGE) {
    usage_error("--" + key + " needs a non-negative integer, got '" + v + "'");
  }
  return x;
}

double parse_seconds(const std::string& v) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || !std::isfinite(x) || x < 0) {
    usage_error("--seconds needs a non-negative number, got '" + v + "'");
  }
  return x;
}

Options parse_options(int argc, char** argv) {
  static const std::set<std::string> kValued = {"workload", "seed", "seconds",
                                                "trace", "json", "trace-out"};
  static const std::set<std::string> kBare = {"smoke", "help"};
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_error("unexpected argument '" + arg + "'");
    arg.erase(0, 2);
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
    }
    if (kBare.count(arg)) {
      if (value) usage_error("--" + arg + " takes no value");
      if (arg == "help") {
        print_help();
        std::exit(0);
      }
      o.smoke = true;
      continue;
    }
    if (!kValued.count(arg)) usage_error("unknown flag '--" + arg + "'");
    if (!value) {
      if (i + 1 >= argc) usage_error("--" + arg + " needs a value");
      value = argv[++i];
    }
    if (arg == "workload") {
      o.workload = *value;
    } else if (arg == "seed") {
      o.seed = parse_u64(arg, *value);
    } else if (arg == "seconds") {
      o.seconds = parse_seconds(*value);
    } else if (arg == "trace") {
      if (*value != "0" && *value != "1") usage_error("--trace takes 0 or 1");
      o.trace = *value == "1";
    } else if (arg == "json") {
      o.json_path = *value;
    } else {
      o.trace_out = *value;
    }
  }
  return o;
}

// -- One workload, inside its child ------------------------------------------------

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Summary> e2e;
  std::map<std::string, double> layers;
  std::vector<std::string> notes;
};

struct Reference {
  std::vector<RunMetrics> outputs;
  std::vector<std::uint64_t> digests;
  std::uint64_t workload_digest = vprobe::trace::fnv1a_basis();
};

class WorkloadRun {
 public:
  WorkloadRun(const Workload& w, const Options& o,
              const std::map<std::string, std::uint64_t>& recorded)
      : w_(w), o_(o), recorded_(recorded) {}

  Result run() {
    const auto prep0 = Clock::now();
    sims_ = w_.prepare(o_.seed, false);
    parse_ms_.push_back(seconds_since(prep0) * 1e3);
    warm_up();
    if (o_.smoke || !o_.trace) timed_phase();
    if (o_.smoke || o_.trace) traced_phase();
    return std::move(r_);
  }

 private:
  /// Host time per simulation across the timed reps.
  struct Times {
    std::vector<std::vector<double>> wall;
    std::vector<std::vector<double>> cpu;
    double sim_s = 0.0;  ///< simulated seconds in one rep
  };

  /// Run one untraced rep; checks every output against the warm-up's.
  void untraced_rep(bool reference, Times* times = nullptr) {
    if (times) {
      times->wall.resize(sims_.size());
      times->cpu.resize(sims_.size());
      times->sim_s = 0.0;
    }
    for (std::size_t i = 0; i < sims_.size(); ++i) {
      ++r_.attempted;
      try {
        const double cpu0 = cpu_seconds();
        const auto t0 = Clock::now();
        RunMetrics m = sims_[i].run();
        if (times) {
          times->wall[i].push_back(seconds_since(t0));
          times->cpu[i].push_back(cpu_seconds() - cpu0);
          times->sim_s += m.sim_seconds;
        }
        const std::uint64_t d = output_digest(m);
        // The reference keeps one entry per simulation, failed or not, so
        // later reps compare simulation i against simulation i.
        if (reference) {
          ref_.digests.push_back(d);
          ref_.workload_digest = vprobe::trace::fnv1a_mix(ref_.workload_digest, d);
        }
        if (!m.completed) {
          fail(sims_[i].label + ": did not complete before its horizon");
        } else if (!reference && d != ref_.digests.at(i)) {
          fail(sims_[i].label + ": output digest differs between reps");
        }
        if (reference) ref_.outputs.push_back(std::move(m));
      } catch (const std::exception& e) {
        fail(sims_[i].label + ": threw: " + e.what());
        if (reference) {
          ref_.digests.push_back(0);
          ref_.outputs.emplace_back();
        }
      }
    }
  }

  /// A failed check; `sims` simulations count as failed.
  void fail(const std::string& why, std::uint64_t sims = 1) {
    r_.failed += sims;
    r_.correct = false;
    r_.notes.push_back("FAIL " + why);
  }

  /// Discarded for timing (first-rep effects: page faults, lazy tables);
  /// its outputs are the reference every later rep must reproduce.
  void warm_up() {
    untraced_rep(true);
    const std::string key =
        std::string(o_.smoke ? "smoke:" : "") + w_.name + " " + std::to_string(o_.seed);
    const std::string hex = vprobe::trace::digest_hex(ref_.workload_digest);
    const auto it = recorded_.find(key);
    if (it == recorded_.end()) {
      r_.notes.push_back("output digest " + hex +
                         " (no recorded digest for this seed: reps must agree)");
    } else if (it->second == ref_.workload_digest) {
      r_.notes.push_back("output digest " + hex + " matches the recorded digest");
    } else {
      fail("output digest " + hex + " != recorded " +
               vprobe::trace::digest_hex(it->second),
           sims_.size());
    }
    if (std::string_view(w_.name) == "paper_mix") {
      char line[200];
      std::snprintf(line, sizeof line,
                    "fidelity: normalized vProbe mix runtime %.3f vs the paper's "
                    "~0.80 (simulated; model unvalidated against hardware)",
                    normalized_vprobe_mix(ref_.outputs));
      r_.notes.push_back(line);
    }
  }

  bool more_reps(int done, int floor, Clock::time_point start) const {
    if (o_.smoke) return done < 1;
    if (o_.seconds <= 0) return done < kDefaultReps;
    return done < floor || seconds_since(start) < o_.seconds;
  }

  void timed_phase() {
    // A pass takes about a millisecond, so many passes keep the median
    // steady at little cost.
    std::vector<double> setup;
    const auto setup_start = Clock::now();
    for (int p = 0; o_.smoke ? p < 1
                             : p < kSetupPasses || seconds_since(setup_start) < kSetupSeconds;
         ++p) {
      const auto t0 = Clock::now();
      for (const Sim& s : w_.prepare(o_.seed, true)) s.run();
      setup.push_back(seconds_since(t0));
    }
    r_.e2e["setup_s"] = summarize(setup);

    Times times;
    const auto start = Clock::now();
    for (int rep = 0; more_reps(rep, kMinTimedReps, start); ++rep) {
      untraced_rep(false, &times);
    }
    const Summary wall = sum_of_simulations(times.wall);
    r_.e2e["wall_s"] = wall;
    r_.e2e["cpu_s"] = sum_of_simulations(times.cpu);
    r_.e2e["sim_s_per_s"] = {times.sim_s / wall.median, times.sim_s / wall.q3,
                             times.sim_s / wall.q1, wall.n};
  }

  /// Alternates traced reps (replicas + spans) with untraced reps, so the
  /// overhead ratio compares runs taken under the same machine conditions.
  void traced_phase() {
    const double timer_ns = calibrate_timer_ns();
    SpanLog log;
    std::vector<std::map<std::string, double>> per_rep;
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    const auto start = Clock::now();
    for (int rep = 0; more_reps(rep, 1, start); ++rep) {
      const auto p0 = Clock::now();
      const std::vector<Sim> sims = w_.prepare(o_.seed, false);
      parse_ms_.push_back(seconds_since(p0) * 1e3);

      Layers layers;
      std::vector<double> json_us;
      const std::int64_t rep_span = log.open(std::string("rep ") + w_.name, -1);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < sims.size(); ++i) {
        ++r_.attempted;
        const std::int64_t span = log.open("sim " + sims[i].label, rep_span);
        Traced t = sims[i].traced(log, span);
        log.close(span, t.layers.hooks.total_calls(), t.layers.hooks.total_ns());
        const auto j0 = Clock::now();
        vprobe::stats::to_json(t.metrics);
        json_us.push_back(seconds_since(j0) * 1e6);
        if (!same_output(ref_.outputs.at(i), t.metrics, sims[i].compare)) {
          fail(sims[i].label + ": traced replica output differs from the entry point");
        }
        layers += t.layers;
      }
      traced_wall.push_back(seconds_since(t0));
      log.close(rep_span, layers.hooks.total_calls(), layers.hooks.total_ns());

      const auto u0 = Clock::now();
      untraced_rep(false);
      untraced_wall.push_back(seconds_since(u0));
      per_rep.push_back(layer_values(layers, timer_ns, json_us));
    }

    for (const auto& [name, value] : per_rep.front()) {
      std::vector<double> values;
      for (const auto& rep : per_rep) values.push_back(rep.at(name));
      if (kDeterministicCounts.count(name) &&
          std::any_of(values.begin(), values.end(),
                      [&](double v) { return v != value; })) {
        fail("count " + name + " differs between traced reps", 0);
      }
      r_.layers[name] = median(values);
    }
    const double events = r_.layers["sim.events"];
    r_.layers["sim.ns_per_event"] = events > 0 ? median(untraced_wall) * 1e9 / events : 0.0;
    r_.layers["trace.overhead_frac"] = median(traced_wall) / median(untraced_wall) - 1.0;
    r_.layers["trace.timer_ns"] = timer_ns;
    r_.layers["runner.parse_ms"] = median(parse_ms_);
    if (!o_.trace_out.empty()) {
      std::ofstream out(o_.trace_out, std::ios::app);
      log.write_jsonl(out, w_.name);
      if (!out) r_.notes.push_back("warning: could not write " + o_.trace_out);
    }
  }

  static std::map<std::string, double> layer_values(const Layers& l, double timer_ns,
                                                    const std::vector<double>& json_us) {
    const auto net_ns = [&](Hook h) {
      return std::max(0.0, static_cast<double>(l.hooks.ns_of(h)) -
                               static_cast<double>(l.hooks.calls_of(h)) * timer_ns);
    };
    double hook_ns = 0.0;
    for (std::size_t h = 0; h < kNumHooks; ++h) hook_ns += net_ns(static_cast<Hook>(h));
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    const double run_ns = static_cast<double>(l.run_ns);
    const std::uint64_t lookups = l.rate_hits + l.rate_misses;
    return {
        {"sim.events", u(l.events)},
        {"sched.do_schedule.calls", u(l.hooks.calls_of(Hook::kDoSchedule))},
        {"sched.do_schedule.ns", net_ns(Hook::kDoSchedule)},
        {"sched.wake.ns", net_ns(Hook::kWake)},
        {"sched.sleep.ns", net_ns(Hook::kSleep)},
        {"sched.tick.ns", net_ns(Hook::kTick)},
        {"sched.accounting.ns", net_ns(Hook::kAccounting)},
        {"sched.requeue.ns", net_ns(Hook::kRequeue)},
        {"sched.share", run_ns > 0 ? hook_ns / run_ns : 0.0},
        {"run.rest_ns", std::max(0.0, run_ns - hook_ns)},
        {"core.partition_rounds", u(l.partition_rounds)},
        {"core.partition_moves", u(l.partition_moves)},
        {"perf.rate_lookups", u(lookups)},
        {"perf.rate_hit_frac", lookups ? u(l.rate_hits) / u(lookups) : 0.0},
        {"wl.arrival_events", u(l.arrival_events)},
        {"wl.arrivals_coalesced", u(l.arrivals_coalesced)},
        {"wl.requests", u(l.requests)},
        {"wl.events_per_request",
         l.requests ? u(l.arrival_events) / u(l.requests) : 0.0},
        {"pdes.windows", u(l.sync.windows)},
        {"pdes.windows_coalesced", u(l.sync.windows_coalesced)},
        {"pdes.barriers", u(l.sync.barriers)},
        {"pdes.shard_dispatches", u(l.sync.shard_dispatches)},
        {"pdes.shard_skips", u(l.sync.shard_skips)},
        {"pdes.pool_wakeups", u(l.sync.pool_wakeups)},
        {"pdes.pool_parks", u(l.sync.pool_parks)},
        {"pdes.pool_spin_grabs", u(l.sync.pool_spin_grabs)},
        {"cluster.migrations_completed", u(l.migrations_completed)},
        {"cluster.precopy_rounds", u(l.precopy_rounds)},
        {"stats.json_us", median(json_us)},
        {"trace.records", u(l.trace_records)},
        {"run.slices", u(l.slice_ms.size())},
        {"run.slice_ms.p50", percentile(l.slice_ms, 0.50)},
        {"run.slice_ms.p99", percentile(l.slice_ms, 0.99)},
    };
  }

  const Workload& w_;
  const Options& o_;
  const std::map<std::string, std::uint64_t>& recorded_;
  std::vector<Sim> sims_;
  Reference ref_;
  std::vector<double> parse_ms_;
  Result r_;
};

// -- Child process plumbing ----------------------------------------------------------

std::string serialize(const Result& r) {
  std::ostringstream out;
  out.precision(17);
  out << "C " << r.correct << ' ' << r.attempted << ' ' << r.failed << '\n';
  for (const auto& [name, m] : r.e2e) {
    out << "E " << name << ' ' << m.median << ' ' << m.q1 << ' ' << m.q3 << ' ' << m.n
        << '\n';
  }
  for (const auto& [name, v] : r.layers) out << "L " << name << ' ' << v << '\n';
  for (const auto& note : r.notes) out << "N " << note << '\n';
  return out.str();
}

Result deserialize(const std::string& text) {
  Result r;
  r.correct = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string tag;
    words >> tag;
    if (tag == "C") {
      words >> r.correct >> r.attempted >> r.failed;
    } else if (tag == "E") {
      std::string name;
      Summary m;
      words >> name >> m.median >> m.q1 >> m.q3 >> m.n;
      r.e2e[name] = m;
    } else if (tag == "L") {
      std::string name;
      double v = 0.0;
      words >> name >> v;
      r.layers[name] = v;
    } else if (tag == "N") {
      r.notes.push_back(line.substr(2));
    }
  }
  return r;
}

/// Run one workload in a forked child; its rusage gives the peak RSS.
Result run_in_child(const Workload& w, const Options& o,
                    const std::map<std::string, std::uint64_t>& recorded) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    Result r;
    try {
      r = WorkloadRun(w, o, recorded).run();
    } catch (const std::exception& e) {
      r.correct = false;
      r.attempted = std::max<std::uint64_t>(r.attempted, 1);
      r.failed = r.attempted;
      r.notes.push_back(std::string("FAIL workload threw: ") + e.what());
    }
    const std::string text = serialize(r);
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) _exit(3);
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(stdout);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  Result r = deserialize(text);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.correct = false;
    r.attempted = std::max<std::uint64_t>(r.attempted, 1);
    r.failed = r.attempted;
    r.notes.push_back("FAIL workload child exited abnormally");
  }
  // A traced child also holds its spans, so only an untraced one's peak
  // is the workload's.
  if (!o.trace || o.smoke) {
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    r.e2e["peak_rss_mb"] = {rss_mb, rss_mb, rss_mb, 1};
  }
  return r;
}

// -- Reporting ----------------------------------------------------------------------------

struct Reported {
  std::string name;
  const char* unit;
  double median;
  double q1;
  double q3;
  std::size_t n;
};

std::vector<Reported> end_to_end(const Result& r) {
  std::vector<Reported> out;
  for (const MetricDecl& m : kEndToEnd) {
    const auto it = r.e2e.find(m.name);
    if (it == r.e2e.end()) continue;
    const Summary& s = it->second;
    out.push_back({m.name, m.unit, s.median, s.q1, s.q3, s.n});
  }
  return out;
}

void print_block(const Workload& w, const Result& r, const Options& o) {
  std::printf("== %s: %s\n", w.name, w.why);
  std::printf("   seed %llu, %llu simulations attempted, %llu failed\n",
              static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const Reported& m : end_to_end(r)) {
    std::printf("   %-14s %-8s median %-12.6g q1 %-12.6g q3 %-12.6g n=%zu\n",
                m.name.c_str(), m.unit, m.median, m.q1, m.q3, m.n);
  }
  for (const MetricDecl& m : kPerLayer) {
    const auto it = r.layers.find(m.name);
    if (it != r.layers.end()) {
      std::printf("   %-28s %-10s %.6g\n", m.name, m.unit, it->second);
    }
  }
  for (const std::string& note : r.notes) std::printf("   %s\n", note.c_str());
}

void write_json_file(const std::string& path, const Options& o,
                     const std::vector<std::pair<const Workload*, Result>>& results) {
  std::ofstream out(path);
  vprobe::stats::JsonWriter json(out);
  json.begin_object()
      .member("seed", o.seed)
      .member("trace", o.trace)
      .member("smoke", o.smoke);
  json.key("workloads").begin_array();
  for (const auto& [w, r] : results) {
    json.begin_object()
        .member("name", w->name)
        .member("correct", r.correct)
        .member("attempted", r.attempted)
        .member("failed", r.failed);
    json.key("end_to_end").begin_object();
    for (const Reported& m : end_to_end(r)) {
      json.key(m.name).begin_object()
          .member("unit", m.unit)
          .member("median", m.median)
          .member("q1", m.q1)
          .member("q3", m.q3)
          .member("n", static_cast<std::uint64_t>(m.n))
          .end_object();
    }
    json.end_object();
    json.key("per_layer").begin_object();
    for (const MetricDecl& m : kPerLayer) {
      const auto it = r.layers.find(m.name);
      if (it == r.layers.end()) continue;
      json.key(m.name).begin_object()
          .member("unit", m.unit)
          .member("value", it->second)
          .end_object();
    }
    json.end_object();
    json.key("notes").begin_array();
    for (const std::string& note : r.notes) json.value(note);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
  if (!out) std::fprintf(stderr, "perf_suite: warning: could not write %s\n", path.c_str());
}

/// The machine-readable last line: {"correct", "attempted", "failed", "metrics"}.
void print_result_line(const Options& o,
                       const std::vector<std::pair<const Workload*, Result>>& results) {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics;
  // Written by hand rather than with JsonWriter: values keep all 17
  // significant digits (JsonWriter rounds to 10).
  const auto add = [&metrics](const std::string& name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0, unit);
    metrics += buf;
  };
  for (const auto& [w, r] : results) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix = results.size() > 1 ? std::string(w->name) + "." : "";
    if (!o.trace || o.smoke) {
      for (const Reported& m : end_to_end(r)) add(prefix + m.name, m.median, m.unit);
    }
    if (o.trace || o.smoke) {
      for (const MetricDecl& m : kPerLayer) {
        const auto it = r.layers.find(m.name);
        if (it != r.layers.end()) add(prefix + m.name, it->second, m.unit);
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
}

/// Every name/unit pair BENCHMARK.json declares must be one the suite prints.
int check_declared_metrics(const std::vector<Workload>& workloads) {
  std::ifstream in(PERFSUITE_BENCHMARK_JSON);
  if (!in) {
    std::printf("  [FAIL] cannot read %s\n", PERFSUITE_BENCHMARK_JSON);
    return 1;
  }
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  std::map<std::string, std::string> known;
  for (const MetricDecl& m : kEndToEnd) known[m.name] = m.unit;
  for (const MetricDecl& m : kPerLayer) known[m.name] = m.unit;
  std::set<std::string> workload_names;
  for (const Workload& w : workloads) workload_names.insert(w.name);

  const std::regex object(R"(\{[^{}]*\})");
  const std::regex name_re(R"re("name"\s*:\s*"([^"]*)")re");
  const std::regex unit_re(R"re("unit"\s*:\s*"([^"]*)")re");
  int failures = 0;
  int declared = 0;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), object);
       it != std::sregex_iterator(); ++it) {
    const std::string obj = it->str();
    std::smatch name;
    std::smatch unit;
    if (!std::regex_search(obj, name, name_re)) continue;
    ++declared;
    if (std::regex_search(obj, unit, unit_re)) {
      const auto k = known.find(name[1]);
      if (k == known.end() || k->second != unit[1]) {
        std::printf("  [FAIL] BENCHMARK.json metric %s (%s) is not printed by the suite\n",
                    name[1].str().c_str(), unit[1].str().c_str());
        ++failures;
      }
    } else if (!workload_names.count(name[1])) {
      std::printf("  [FAIL] BENCHMARK.json workload %s is not a suite workload\n",
                  name[1].str().c_str());
      ++failures;
    }
  }
  std::printf("  [%s] %d BENCHMARK.json names printed with their units\n",
              failures == 0 && declared > 0 ? "PASS" : "FAIL", declared);
  return failures == 0 && declared > 0 ? 0 : 1;
}

/// A simulation that ends incomplete fails once in each untraced rep (at
/// smoke size three: the warm-up, one timed rep and the untraced partner
/// of the traced rep) and must not shift the reference the simulations
/// after it are checked against.
int check_cut_short(Options o, const std::map<std::string, std::uint64_t>& recorded) {
  o.trace_out.clear();
  const Result r = run_in_child(make_cut_short_workload(), o, recorded);
  const bool only_incomplete =
      std::all_of(r.notes.begin(), r.notes.end(), [](const std::string& n) {
        return n.rfind("FAIL", 0) != 0 || n.find("did not complete") != std::string::npos;
      });
  const bool ok = r.failed == 3 && only_incomplete;
  std::printf("  [%s] a simulation cut short fails once per untraced rep and nothing "
              "else fails (%llu failed, want 3)\n",
              ok ? "PASS" : "FAIL", static_cast<unsigned long long>(r.failed));
  if (!ok) {
    for (const std::string& note : r.notes) std::printf("         %s\n", note.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfsuite

int main(int argc, char** argv) {
  using namespace perfsuite;  // NOLINT
  const Options o = parse_options(argc, argv);
  const std::vector<Workload> workloads = make_workloads(o.smoke);
  std::vector<const Workload*> selected;
  for (const Workload& w : workloads) {
    if (o.workload.empty() || o.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) usage_error("unknown workload '" + o.workload + "'");
  if (!o.trace_out.empty()) std::ofstream(o.trace_out, std::ios::trunc);

  const auto recorded = load_digests(PERFSUITE_DIGESTS);
  std::vector<std::pair<const Workload*, Result>> results;
  for (const Workload* w : selected) {
    results.emplace_back(w, run_in_child(*w, o, recorded));
    print_block(*w, results.back().second, o);
  }

  bool ok = std::all_of(results.begin(), results.end(),
                        [](const auto& wr) { return wr.second.correct; });
  if (o.smoke) {
    std::printf("smoke gates:\n");
    std::printf("  [%s] replica == entry point, recorded digests, zero failures\n",
                ok ? "PASS" : "FAIL");
    ok = check_declared_metrics(workloads) == 0 && ok;
    ok = check_cut_short(o, recorded) == 0 && ok;
  }
  if (!o.json_path.empty()) write_json_file(o.json_path, o, results);
  print_result_line(o, results);
  return ok ? 0 : 1;
}
