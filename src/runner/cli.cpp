#include "runner/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace vprobe::runner {

namespace {

/// Keys that may take their value as the *next* argv token ("--jobs 4").
/// "--key=value" works for every key; unknown bare "--flag"s stay flags.
constexpr const char* kValueKeys[] = {
    "jobs",   "repeats", "seed",     "scale", "instr-scale",
    "sched",  "json",    "period",   "ops",   "requests",
    "sim-threads", "rps", "slo-ms",  "hosts-csv", "horizon",
    "max-threads",
};

/// The value a bare "--flag" stores.  (A std::string rather than a literal:
/// assigning the literal trips a GCC 12 -Wrestrict false positive.)
const std::string kBareFlag = "1";

bool takes_value(const std::string& key) {
  for (const char* k : kValueKeys) {
    if (key == k) return true;
  }
  return false;
}

/// Parse the whole of `value` with `parse` (a strtol-style function) into
/// `out`.  False on leading/trailing garbage, an empty string or an
/// out-of-range value.
template <class T, class Parse>
bool parse_whole(const std::string& value, Parse parse, T& out) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  out = parse(begin, &end);
  return !value.empty() && !std::isspace(static_cast<unsigned char>(value[0])) &&
         end == begin + value.size() && errno != ERANGE;
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        continue;
      }
      const std::string key = arg.substr(2);
      if (takes_value(key) && i + 1 < argc &&
          std::strncmp(argv[i + 1], "--", 2) != 0) {
        options_[key] = argv[++i];
      } else {
        options_[key] = kBareFlag;
      }
    } else if (arg == "-h") {
      options_["help"] = kBareFlag;
    } else {
      positional_.push_back(arg);
    }
  }
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

void Cli::reject(const std::string& key, const std::string& value,
                 const char* expected) const {
  std::fprintf(stderr, "%s: --%s: expected %s, got '%s'\n", program_.c_str(),
               key.c_str(), expected, value.c_str());
  std::exit(2);
}

double Cli::get_double(const std::string& key, double fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  double v = 0.0;
  if (!parse_whole(it->second, [](const char* s, char** end) { return std::strtod(s, end); },
                   v) ||
      !std::isfinite(v)) {
    reject(key, it->second, "a finite number");
  }
  return v;
}

int Cli::get_int(const std::string& key, int fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  long v = 0;
  if (!parse_whole(it->second,
                   [](const char* s, char** end) { return std::strtol(s, end, 10); }, v) ||
      v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    reject(key, it->second, "an integer in int range");
  }
  return static_cast<int>(v);
}

std::uint64_t Cli::get_u64(const std::string& key, std::uint64_t fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  std::uint64_t v = 0;
  // strtoull accepts "-1" (wrapping to 2^64-1); an unsigned value has no sign.
  if (it->second.find('-') != std::string::npos ||
      !parse_whole(it->second,
                   [](const char* s, char** end) { return std::strtoull(s, end, 10); }, v)) {
    reject(key, it->second, "a non-negative integer");
  }
  return v;
}

bool Cli::help_requested() const { return has("help"); }

void Cli::require_known(std::initializer_list<std::string_view> known,
                        std::span<const std::string_view> also) {
  declared_.assign(known.begin(), known.end());
  declared_.insert(declared_.end(), also.begin(), also.end());
  for (const auto& [key, value] : options_) {
    if (key == "help" || accepts(key)) continue;
    std::fprintf(stderr, "%s: unknown flag --%s (see --help)\n",
                 program_.c_str(), key.c_str());
    std::exit(2);
  }
}

bool Cli::accepts(std::string_view key) const {
  return std::find(declared_.begin(), declared_.end(), key) != declared_.end();
}

BenchFlags parse_bench_flags(const Cli& cli, double default_scale) {
  BenchFlags flags;
  // --instr-scale is the canonical spelling; --scale stays as the
  // historical alias every existing script uses.
  flags.config.instr_scale =
      cli.get_double("instr-scale", cli.get_double("scale", default_scale));
  flags.config.seed = cli.get_u64("seed", 1);
  flags.config.repeats = cli.get_int("repeats", 3);
  flags.config.sampling_period = sim::Time::seconds(cli.get_double("period", 1.0));
  flags.jobs = cli.get_int("jobs", 1);
  flags.config.checks = cli.has("checks");
  flags.config.rate_cache = !cli.has("no-rate-cache");
  if (cli.has("json")) {
    const std::string path = cli.get("json", "-");
    flags.json_path = (path == "1") ? "-" : path;
  }
  if (cli.has("sched")) {
    const std::string name = cli.get("sched", "");
    const auto kind = sched_from_name(name);
    if (!kind) {
      std::fprintf(stderr,
                   "%s: --sched: unknown scheduler '%s' (expected one of"
                   " credit, vprobe, vcpu_p, lb, brm, autonuma)\n",
                   cli.program().c_str(), name.c_str());
      std::exit(2);
    }
    flags.sched = *kind;
    flags.config.sched = *kind;
  }
  return flags;
}

bool maybe_print_help(const Cli& cli, const char* summary, const char* extra) {
  if (!cli.help_requested()) return false;
  std::printf("%s\n\nUsage: %s [options]\n", summary, cli.program().c_str());
  const bool standard = std::all_of(
      std::begin(kBenchFlagKeys), std::end(kBenchFlagKeys),
      [&](std::string_view key) { return cli.accepts(key); });
  if (standard) {
    std::printf(
        "\nStandard options (all accept --key=value or --key value):\n"
        "  --jobs N         run N simulations concurrently (0 = all host cores;\n"
        "                   results are bit-identical to --jobs 1)\n"
        "  --repeats N      average every experiment over N seeds (default 3)\n"
        "  --seed S         base RNG seed (default 1)\n"
        "  --instr-scale X  scale app instruction budgets; 1.0 = paper-scale\n"
        "                   (alias: --scale)\n"
        "  --sched NAME     restrict scheduler sweeps to one of credit, vprobe,\n"
        "                   vcpu_p, lb, brm, autonuma\n"
        "  --period S       scheduler sampling period in seconds (default 1.0)\n"
        "  --json PATH      also write results as JSON lines to PATH (- = stdout)\n"
        "  --checks         run the invariant checker on every simulation and\n"
        "                   abort on any violation\n"
        "  --no-rate-cache  disable the segment-path reuse: slice clamp and\n"
        "                   decay memos (results are bit-identical either\n"
        "                   way; this is the escape hatch differential tests\n"
        "                   use to prove it)\n"
        "  --help           this text\n");
  }
  if (extra != nullptr && *extra != '\0') {
    std::printf("\n%s\n", extra);
  }
  return true;
}

std::vector<SchedKind> sweep_schedulers(const BenchFlags& flags) {
  if (flags.sched) return {*flags.sched};
  const auto paper = paper_schedulers();
  return {paper.begin(), paper.end()};
}

}  // namespace vprobe::runner
