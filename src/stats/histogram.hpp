#pragma once
// Fixed-memory log-bucketed latency histogram (HDR-style).
//
// Values are recorded in integer nanoseconds. Below kSubBucketCount ns the
// buckets are exact (1 ns wide); above that, each power-of-two octave is
// split into kSubBucketCount/2 equal sub-buckets, so the bucket width is
// always <= value / (kSubBucketCount/2). Reporting the bucket midpoint
// bounds the relative quantile error by 1 / kSubBucketCount (= 1/128 with
// the default 7 sub-bucket bits), plus at most 0.5 ns of rounding.
//
// The layout is fixed at compile time (2240 uint64 buckets, ~17.5 KiB when
// materialised), so merging two histograms is an element-wise integer add:
// deterministic, commutative, and associative regardless of merge order.
// Exact min / max / sum / count are tracked alongside the buckets so the
// distribution extremes are reported without bucketing error.
//
// Percentiles use the ceil-rank order statistic: percentile(p) returns the
// value at rank ceil(p/100 * count) (1-based). percentile(0) is the exact
// minimum and percentile(100) the exact maximum.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vprobe::stats {

class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 7;
  static constexpr std::uint64_t kSubBucketCount = 1ull << kSubBucketBits;
  static constexpr int kOctaves = 33;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kSubBucketCount) +
      static_cast<std::size_t>(kOctaves) * (kSubBucketCount / 2);
  // Largest representable value: 2^(kSubBucketBits + kOctaves) - 1 ns
  // (about 18 minutes). Larger samples are clamped into the top bucket.
  static constexpr std::uint64_t kMaxValueNs =
      (1ull << (kSubBucketBits + kOctaves)) - 1;

  // Documented bound on the relative error of any reported percentile
  // (excluding the exact 0th/100th), for values above kSubBucketCount ns.
  static constexpr double max_relative_error() {
    return 1.0 / static_cast<double>(kSubBucketCount);
  }

  // Record `weight` observations of `seconds` (negative values clamp to 0).
  void record(double seconds, std::uint64_t weight = 1);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min_s() const { return count_ ? min_ : 0.0; }
  double max_s() const { return count_ ? max_ : 0.0; }

  // Ceil-rank order statistic; 0 on an empty histogram.
  double percentile(double p) const;
  double p50_s() const { return percentile(50.0); }
  double p99_s() const { return percentile(99.0); }
  double p999_s() const { return percentile(99.9); }

  // Count of recorded observations strictly above `threshold_s`, resolved
  // at bucket granularity (exact when the threshold is a bucket boundary).
  std::uint64_t count_above(double threshold_s) const;

  // Element-wise add; commutative and associative, bit-deterministic for
  // the bucket counts and min/max (sum is a float accumulation, which is
  // still bitwise-commutative for a single two-way merge).
  void merge(const LatencyHistogram& other);

  bool operator==(const LatencyHistogram& other) const;
  bool operator!=(const LatencyHistogram& other) const {
    return !(*this == other);
  }

  // FNV-1a over the totals and all non-empty (index, count) pairs.
  std::uint64_t digest() const;

  // Mapping helpers, exposed for tests.
  static std::size_t bucket_index(std::uint64_t ns);
  static double bucket_mid_s(std::size_t index);

 private:
  std::uint64_t bucket_count(std::size_t index) const {
    return counts_.empty() ? 0 : counts_[index];
  }

  // Lazily allocated so an empty histogram (the common RunMetrics case)
  // costs nothing to copy.
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace vprobe::stats
