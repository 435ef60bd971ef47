// Regression tests pinning obs::Log2Histogram's documented accuracy
// contract: power-of-two buckets, one-octave percentile error bound, and
// the exact p50/p95/p99 values for a known distribution (the serving
// layer's stats depend on it).
#include <cstdint>
#include <type_traits>

#include <gtest/gtest.h>

#include "obs/histogram.hpp"
#include "serve/stats.hpp"

namespace {

using mev::obs::Log2Histogram;

TEST(Log2Histogram, ServeReExportIsTheSameType) {
  // The serving layer's stats carry this very histogram, so the accuracy
  // contract pinned here is the one ServiceStats reports.
  static_assert(std::is_same_v<decltype(mev::serve::ServiceStats::batch_rows),
                               Log2Histogram>);
  static_assert(
      std::is_same_v<decltype(mev::serve::ServiceStats::e2e_latency_us),
                     Log2Histogram>);
}

// The pinned regression for the header's accuracy contract: record
// 1..1000 once each and check the exact interpolated percentiles.
//
// Bucket occupancy: bucket i holds [2^(i-1), 2^i), so bucket 9 holds
// 256..511 (256 values, cumulative 511) and bucket 10 holds 512..1000
// (489 values, cumulative 1000).
TEST(Log2Histogram, PercentileRegressionForUniform1To1000) {
  Log2Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);

  // p50: rank 500 lands in bucket 9 at fraction (500-255)/256, so the
  // interpolated value is 256 + 245 = 501 exactly (true p50 is 500).
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 501.0);

  // p95: rank 950 lands in bucket 10 at fraction (950-511)/489:
  // 512 + (439/489)*512 ~= 971.648 (true p95 is 950 — same octave).
  EXPECT_NEAR(h.percentile(95.0), 512.0 + (439.0 / 489.0) * 512.0, 1e-9);
  EXPECT_NEAR(h.percentile(95.0), 971.648, 1e-3);

  // p99: rank 990 interpolates past the observed maximum and clamps to
  // it: exactly 1000 (true p99 is 990).
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 1000.0);

  // The documented bound: every reported percentile lies within one
  // octave (a factor of 2) of the true percentile of this distribution.
  const double true_p[] = {500.0, 950.0, 990.0};
  const double got_p[] = {h.percentile(50.0), h.percentile(95.0),
                          h.percentile(99.0)};
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(got_p[i], true_p[i] / 2.0);
    EXPECT_LT(got_p[i], true_p[i] * 2.0);
  }

  // Exact moments, per the contract.
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
}

TEST(Log2Histogram, BucketUpperBoundsArePowerOfTwoMinusOne) {
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(10), 1023u);
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(39),
            (std::uint64_t{1} << 39) - 1);
  // Past 63 the shift saturates instead of invoking UB.
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(200),
            (std::uint64_t{1} << 63) - 1);
}

TEST(Log2Histogram, BucketCountsCoverEveryRecordedValue) {
  Log2Histogram h;
  for (std::uint64_t v = 0; v <= 100; ++v) h.record(v);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i)
    total += h.bucket_count(i);
  EXPECT_EQ(total, h.count());
  EXPECT_EQ(h.bucket_count(0), 1u);  // the lone zero
  EXPECT_EQ(h.bucket_count(1), 1u);  // {1}
  EXPECT_EQ(h.bucket_count(7), 37u); // 64..100
  EXPECT_EQ(h.bucket_count(Log2Histogram::kBuckets), 0u);  // out of range
}

TEST(Log2Histogram, SummaryDigestsMatchPercentiles) {
  Log2Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const mev::obs::LatencySummary s = mev::obs::summarize(h);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, h.percentile(50.0));
  EXPECT_DOUBLE_EQ(s.p95, h.percentile(95.0));
  EXPECT_DOUBLE_EQ(s.p99, h.percentile(99.0));
  EXPECT_EQ(s.max, 1000u);
}

}  // namespace
