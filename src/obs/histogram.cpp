#include "obs/histogram.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace mev::obs {

namespace {

/// Bucket index for a value: 0 holds {0}, bucket i holds [2^(i-1), 2^i).
std::size_t bucket_of(std::uint64_t value) noexcept {
  if (value == 0) return 0;
  const std::size_t b = static_cast<std::size_t>(std::bit_width(value));
  return std::min(b, Log2Histogram::kBuckets - 1);
}

/// Inclusive value range covered by bucket i.
std::pair<double, double> bucket_range(std::size_t i) noexcept {
  if (i == 0) return {0.0, 0.0};
  const double lo = static_cast<double>(std::uint64_t{1} << (i - 1));
  return {lo, 2.0 * lo};
}

}  // namespace

std::size_t Log2Histogram::bucket_index(std::uint64_t value) noexcept {
  return bucket_of(value);
}

void Log2Histogram::merge_counts(
    const std::array<std::uint64_t, kBuckets>& bucket_counts,
    std::uint64_t count, double sum, std::uint64_t min_value,
    std::uint64_t max_value) noexcept {
  if (count == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += bucket_counts[i];
  min_ = count_ == 0 ? min_value : std::min(min_, min_value);
  max_ = std::max(max_, max_value);
  sum_ += sum;
  count_ += count;
}

void Log2Histogram::record(std::uint64_t value) noexcept {
  ++buckets_[bucket_of(value)];
  if (count_ == 0 || value < min_) min_ = value;
  max_ = std::max(max_, value);
  sum_ += static_cast<double>(value);
  ++count_;
}

double Log2Histogram::mean() const noexcept {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::uint64_t Log2Histogram::bucket_upper_bound(std::size_t i) noexcept {
  if (i == 0) return 0;
  const std::size_t shift = std::min<std::size_t>(i, 63);
  return (std::uint64_t{1} << shift) - 1;
}

double Log2Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target observation, 1-based, nearest-rank style.
  const double rank =
      std::max(1.0, p / 100.0 * static_cast<double>(count_));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets_[i];
    if (rank > static_cast<double>(cumulative)) continue;
    auto [lo, hi] = bucket_range(i);
    // Interpolate position within the bucket, clamp to observed extremes.
    const double frac =
        (rank - before) / static_cast<double>(buckets_[i]);
    const double v = lo + frac * (hi - lo);
    return std::clamp(v, static_cast<double>(min_),
                      static_cast<double>(max_));
  }
  return static_cast<double>(max_);
}

LatencySummary summarize(const Log2Histogram& h) {
  LatencySummary s;
  s.count = h.count();
  s.mean = h.mean();
  s.p50 = h.percentile(50.0);
  s.p95 = h.percentile(95.0);
  s.p99 = h.percentile(99.0);
  s.max = h.max();
  return s;
}

}  // namespace mev::obs
