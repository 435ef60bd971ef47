#include "serve/stats.hpp"

#include <gtest/gtest.h>

namespace mev::serve {
namespace {

TEST(Log2Histogram, EmptyIsAllZero) {
  obs::Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
}

TEST(Log2Histogram, TracksCountMinMaxMeanExactly) {
  obs::Log2Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Log2Histogram, ConstantValuePercentilesAreExact) {
  obs::Log2Histogram h;
  for (int i = 0; i < 100; ++i) h.record(7);
  // Interpolation is clamped to the observed [min, max], so a constant
  // stream reports the constant at every percentile.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 7.0);
}

TEST(Log2Histogram, PercentilesAreMonotoneAndBounded) {
  obs::Log2Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  double prev = 0.0;
  for (double p : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev) << p;
    EXPECT_GE(v, 1.0) << p;
    EXPECT_LE(v, 1000.0) << p;
    prev = v;
  }
  // Octave-resolution sanity: p50 of 1..1000 lands within a factor of 2.
  EXPECT_GE(h.percentile(50.0), 250.0);
  EXPECT_LE(h.percentile(50.0), 1000.0);
}

TEST(Log2Histogram, HandlesZeroAndHugeValues) {
  obs::Log2Histogram h;
  h.record(0);
  h.record(~std::uint64_t{0});  // lands in (clamped) top bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
}

TEST(ServiceStatsSummary, SummarizeReportsDigest) {
  obs::Log2Histogram h;
  for (int i = 0; i < 10; ++i) h.record(100);
  const obs::LatencySummary s = obs::summarize(h);
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.mean, 100.0);
  EXPECT_DOUBLE_EQ(s.p50, 100.0);
  EXPECT_DOUBLE_EQ(s.p99, 100.0);
  EXPECT_EQ(s.max, 100u);
}

TEST(ServiceStatsSummary, ToStringMentionsEveryCounter) {
  ServiceStats stats;
  stats.accepted_requests = 3;
  stats.rejected_queue_full = 1;
  stats.rejected_deadline = 2;
  stats.e2e_latency_us.record(50);
  const std::string s = stats.to_string();
  EXPECT_NE(s.find("queue_full=1"), std::string::npos);
  EXPECT_NE(s.find("deadline=2"), std::string::npos);
  EXPECT_NE(s.find("e2e_latency"), std::string::npos);
  EXPECT_EQ(stats.rejected_total(), 3u);
}

TEST(ServiceStatsSummary, RejectedTotalCountsEveryReason) {
  ServiceStats stats;
  stats.rejected_queue_full = 1;
  stats.rejected_shutting_down = 2;
  stats.rejected_deadline = 4;
  stats.rejected_overloaded = 8;
  stats.rejected_internal = 16;
  EXPECT_EQ(stats.rejected_total(), 31u);
  const std::string s = stats.to_string();
  EXPECT_NE(s.find("overloaded=8"), std::string::npos);
  EXPECT_NE(s.find("internal=16"), std::string::npos);
}

TEST(ServiceStatsSummary, ToStringReportsFailurePosture) {
  ServiceStats stats;
  stats.rejected_deadline = 3;
  stats.expired_at_admission = 1;
  stats.expired_in_queue = 1;
  stats.expired_post_dequeue = 1;
  stats.callback_errors = 2;
  stats.batch_failures = 1;
  stats.worker_stalls = 4;
  stats.worker_recoveries = 3;
  stats.overload_state = 1;  // brownout
  stats.shed_fraction = 0.25;
  const std::string s = stats.to_string();
  EXPECT_NE(s.find("post_dequeue=1"), std::string::npos);
  EXPECT_NE(s.find("callback_errors=2"), std::string::npos);
  EXPECT_NE(s.find("stalls=4"), std::string::npos);
  EXPECT_NE(s.find("brownout"), std::string::npos);
}

}  // namespace
}  // namespace mev::serve
