// Minimal streaming JSON writer + RunMetrics serialisation, so bench
// results can feed external tooling without a CSV-parsing step.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "stats/metrics.hpp"

namespace vprobe::stats {

/// Streaming JSON writer with explicit scopes.  The writer tracks comma
/// placement; callers must close every scope they open (checked in
/// debug builds via depth accounting on destruction).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}
  ~JsonWriter() = default;
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key of the next member (only valid inside an object).
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);

  /// Convenience: key + value.
  template <typename T>
  JsonWriter& member(const std::string& name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  static std::string escape(const std::string& raw);

  int depth() const { return depth_; }

 private:
  void pre_value();

  std::ostream& out_;
  std::vector<bool> needs_comma_{};
  int depth_ = 0;
};

/// Serialise a RunMetrics into a self-contained JSON object.
std::string to_json(const RunMetrics& metrics);

}  // namespace vprobe::stats
