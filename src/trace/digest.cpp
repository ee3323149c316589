#include "trace/digest.hpp"

#include <cstdio>

namespace vprobe::trace {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
}  // namespace

std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t fnv1a_bytes(std::uint64_t hash, std::string_view bytes) {
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= kFnvPrime;
  }
  return hash;
}

void TraceDigest::add(const Record& r) {
  hash_ = fnv1a_mix(hash_, static_cast<std::uint64_t>(r.when.nanos()));
  hash_ = fnv1a_mix(hash_, static_cast<std::uint64_t>(r.kind));
  hash_ = fnv1a_mix(hash_, static_cast<std::uint64_t>(static_cast<std::int64_t>(r.vcpu)));
  hash_ = fnv1a_mix(hash_, static_cast<std::uint64_t>(static_cast<std::int64_t>(r.pcpu)));
  hash_ = fnv1a_mix(hash_, static_cast<std::uint64_t>(static_cast<std::int64_t>(r.aux)));
  ++records_;
}

std::uint64_t digest_records(std::span<const Record> records) {
  TraceDigest d;
  for (const Record& r : records) d.add(r);
  return d.value();
}

std::string digest_hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

}  // namespace vprobe::trace
