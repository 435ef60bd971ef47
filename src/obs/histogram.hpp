// Log2Histogram: the fixed-footprint, O(1)-record histogram shared by the
// serving layer's latency stats and the obs/ metrics registry.
//
// Accuracy contract (pinned by tests/obs/test_histogram.cpp): values land
// in power-of-two buckets — bucket 0 holds {0}, bucket i holds
// [2^(i-1), 2^i) — and percentile() linearly interpolates by rank inside
// the winning bucket, clamped to the observed min/max. The reported
// percentile therefore always lies in the same octave as the true
// percentile: it is at most one power of two away (relative error < 2x,
// typically far less), and is exact for min, max, and single-bucket
// distributions. count/sum/mean/min/max are exact.
//
// This histogram is NOT thread-safe; owners guard it (the registry's
// per-histogram mutex; ServiceStats holds plain copies).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace mev::obs {

/// Fixed-size log2-bucketed histogram of non-negative 64-bit values
/// (microseconds, row counts, ...).
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void record(std::uint64_t value) noexcept;
  void merge(const Log2Histogram& other) noexcept;
  void reset() noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const noexcept { return max_; }
  /// Exact running sum of the recorded values.
  double sum() const noexcept { return sum_; }
  /// Arithmetic mean of the recorded values (exact, from the running sum).
  double mean() const noexcept;

  /// Approximate p-th percentile, p in [0, 100]; linearly interpolated
  /// within the bucket and clamped to the observed min/max (see the
  /// one-octave error bound in the header comment). 0 when empty.
  double percentile(double p) const noexcept;

  /// Raw bucket occupancy, for exporters (Prometheus cumulative buckets).
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return i < kBuckets ? buckets_[i] : 0;
  }
  /// Inclusive integer upper bound of bucket i: 0 for bucket 0, 2^i - 1
  /// otherwise (the last bucket absorbs everything above it).
  static std::uint64_t bucket_upper_bound(std::size_t i) noexcept;
  /// Bucket a value lands in: 0 holds {0}, bucket i holds [2^(i-1), 2^i).
  /// Exposed so lock-free aggregators (obs/window.hpp) bucket identically.
  static std::size_t bucket_index(std::uint64_t value) noexcept;

  /// Bulk merge from externally-accumulated per-bucket counts plus their
  /// exact aggregates — how obs::SlidingHistogram reassembles a mergeable
  /// histogram from its atomic time-bucket slots. `count` must equal the
  /// sum of `bucket_counts`; min/max/sum describe the same observations.
  void merge_counts(const std::array<std::uint64_t, kBuckets>& bucket_counts,
                    std::uint64_t count, double sum, std::uint64_t min_value,
                    std::uint64_t max_value) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

/// The p50/p95/p99 digest reported per histogram. Percentiles inherit
/// Log2Histogram's one-octave error bound; count/mean/max are exact.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::uint64_t max = 0;
};

LatencySummary summarize(const Log2Histogram& h);

}  // namespace mev::obs
