// Shared command-line handling for every bench binary and example.
//
// The Cli class is a tiny option reader: it accepts "--key=value", bare
// "--flag", and — for the standard value-taking keys below — the
// space-separated "--key value" form; anything else is collected as a
// positional argument.
//
// On top of it, BenchFlags/parse_bench_flags() define the flag vocabulary
// every bench shares (--jobs, --repeats, --seed, --instr-scale, --sched,
// --json, ...), so binaries stop hand-rolling their own argv handling.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runner/experiment.hpp"

namespace vprobe::runner {

class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& key) const { return options_.contains(key); }

  std::string get(const std::string& key, const std::string& fallback) const;
  /// Numeric getters return `fallback` when the key is absent.  A present
  /// value must parse completely and fit the type: "x", "12abc", "" or an
  /// out-of-range number is a usage error, so the getter prints the flag
  /// and the value to stderr and exits 2, whichever binary calls it.
  double get_double(const std::string& key, double fallback) const;
  int get_int(const std::string& key, int fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// True when --help (or -h) was given.
  bool help_requested() const;

  /// Strict flag set: a given flag in neither `known` nor `also` (--help
  /// always is) is a usage error, so this prints it to stderr and exits 2.
  /// Without the check a misspelt flag such as --no-lazy-arrival is
  /// silently ignored.  Binaries that read the standard flags pass
  /// kBenchFlagKeys as `also`.  The declaration is kept, so call this
  /// before maybe_print_help(): --help lists only the flags declared here.
  void require_known(std::initializer_list<std::string_view> known,
                     std::span<const std::string_view> also = {});

  /// True when require_known() declared `key`.
  bool accepts(std::string_view key) const;

 private:
  [[noreturn]] void reject(const std::string& key, const std::string& value,
                           const char* expected) const;

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  std::vector<std::string> declared_;  ///< require_known()'s flags
};

/// The flags parse_bench_flags() reads.
inline constexpr std::string_view kBenchFlagKeys[] = {
    "jobs",  "repeats", "seed",   "scale",  "instr-scale",
    "sched", "json",    "period", "checks", "no-rate-cache",
};

/// The standard flags shared by the bench binaries and examples.
struct BenchFlags {
  RunConfig config;                ///< --sched/--seed/--repeats/--instr-scale/--period
  int jobs = 1;                    ///< --jobs N worker threads (0 = all cores)
  std::string json_path;           ///< --json <path> ("-" = stdout; empty = off)
  std::optional<SchedKind> sched;  ///< --sched NAME restricts scheduler sweeps
};

/// Parse the standard flags.  `default_scale` seeds --instr-scale (alias
/// --scale).  Prints an error and exits(2) on an unknown scheduler name or
/// a malformed numeric value.
BenchFlags parse_bench_flags(const Cli& cli, double default_scale = 0.25);

/// The --help text: the standard flags when the binary declared them all
/// (see Cli::require_known), plus `extra` lines a binary wants to append
/// (may be nullptr).  Returns true when help was requested and printed —
/// the caller should then exit 0.
bool maybe_print_help(const Cli& cli, const char* summary,
                      const char* extra = nullptr);

/// The schedulers a sweep should cover: --sched NAME restricts the sweep
/// to one scheduler, otherwise the paper's five.
std::vector<SchedKind> sweep_schedulers(const BenchFlags& flags);

}  // namespace vprobe::runner
