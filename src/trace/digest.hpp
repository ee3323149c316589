// Stable digest of a trace stream, for golden-trace regression tests.
//
// Hashes the integer fields of every Record (time in nanoseconds, kind,
// vcpu, pcpu, aux) with 64-bit FNV-1a, little-endian, field by field.  The
// value is a pure function of the record sequence: platform-independent,
// order-sensitive, and cheap enough to fold a million-event run.  Tests
// compare it against checked-in goldens so any behavioural drift in the
// engine, hypervisor, or a scheduler shows up as a one-line diff.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "trace/event.hpp"

namespace vprobe::trace {

/// One FNV-1a step folding an arbitrary 64-bit value into `hash`, byte by
/// byte, little-endian.  Start from fnv1a_basis().  Besides the per-record
/// digest it combines per-host stream digests into a single fleet digest:
/// fold (host id, digest, record count) in host-id order.
std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value);
constexpr std::uint64_t fnv1a_basis() { return 1469598103934665603ull; }

/// FNV-1a over a byte string, one step per byte — e.g. a digest of a
/// run's JSON output.
std::uint64_t fnv1a_bytes(std::uint64_t hash, std::string_view bytes);

class TraceDigest {
 public:
  void add(const Record& r);

  std::uint64_t value() const { return hash_; }
  std::uint64_t records() const { return records_; }

 private:
  std::uint64_t hash_ = fnv1a_basis();
  std::uint64_t records_ = 0;
};

/// Digest of a whole record sequence (e.g. Tracer::snapshot()).
std::uint64_t digest_records(std::span<const Record> records);

/// 16 lowercase hex digits, zero-padded — the golden-file spelling.
std::string digest_hex(std::uint64_t value);

}  // namespace vprobe::trace
