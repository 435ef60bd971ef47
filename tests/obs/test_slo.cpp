// SloTracker: burn rates pinned exactly under FakeClock-style explicit
// timestamps — burn(window) = (bad/total)/(1 - objective) — plus budget
// accounting, window expiry, the latency objective's reject exclusion,
// the advisory flag, and the /sloz JSON shape.
#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace mev::obs {
namespace {

constexpr std::uint64_t kSecond = 1'000'000;

SloConfig tight_config() {
  // Small ring so expiry is testable: 20 x 1 s; fast = 5 s, slow = 20 s.
  SloConfig config;
  config.availability_objective = 0.999;
  config.latency_objective = 0.99;
  config.latency_threshold_us = 100'000;
  config.bucket_us = kSecond;
  config.buckets = 20;
  config.fast_window_us = 5 * kSecond;
  config.slow_window_us = 20 * kSecond;
  return config;
}

TEST(SloTrackerTest, BurnRateIsPinnedExactly) {
  SloTracker tracker(tight_config());
  // 100 requests in one bucket, 1 rejected: error rate 1%, availability
  // budget 0.1% -> burn = 10.0 on both windows.
  for (int i = 0; i < 99; ++i) tracker.record(100, true, 1'000);
  tracker.record(100, false, 0);
  const SloTracker::Snapshot s = tracker.snapshot(200);
  EXPECT_EQ(s.availability.fast_total, 100u);
  EXPECT_EQ(s.availability.fast_bad, 1u);
  // Pin against the same expression the tracker computes: (1 - 0.999) is
  // not exactly 1e-3 in binary, so "10.0" would be ~5 ULPs away.
  EXPECT_DOUBLE_EQ(s.availability.fast_burn, (1.0 / 100.0) / (1.0 - 0.999));
  EXPECT_DOUBLE_EQ(s.availability.slow_burn, (1.0 / 100.0) / (1.0 - 0.999));
  EXPECT_NEAR(s.availability.fast_burn, 10.0, 1e-9);
}

TEST(SloTrackerTest, FastWindowForgetsBeforeTheSlowWindow) {
  SloTracker tracker(tight_config());
  // A burst of failures at t=1s, then clean traffic.
  for (int i = 0; i < 10; ++i) tracker.record(kSecond, false, 0);
  for (int i = 0; i < 90; ++i) tracker.record(kSecond, true, 1'000);
  // 10 s later: the burst left the 5 s fast window but not the 20 s slow
  // one. Keep the fast window non-empty with a clean request.
  tracker.record(11 * kSecond, true, 1'000);
  const SloTracker::Snapshot s = tracker.snapshot(11 * kSecond + 1);
  EXPECT_EQ(s.availability.fast_bad, 0u);
  EXPECT_DOUBLE_EQ(s.availability.fast_burn, 0.0);
  EXPECT_EQ(s.availability.slow_bad, 10u);
  EXPECT_GT(s.availability.slow_burn, 0.0);
}

TEST(SloTrackerTest, ErrorBudgetRemainingIsLifetimeBased) {
  SloConfig config = tight_config();
  config.availability_objective = 0.9;  // 10% budget: easy arithmetic
  SloTracker tracker(config);
  // 5% lifetime error rate = half the budget spent.
  for (int i = 0; i < 95; ++i) tracker.record(100, true, 1'000);
  for (int i = 0; i < 5; ++i) tracker.record(100, false, 0);
  const SloTracker::Snapshot s = tracker.snapshot(200);
  EXPECT_EQ(s.availability.lifetime_total, 100u);
  EXPECT_EQ(s.availability.lifetime_bad, 5u);
  EXPECT_DOUBLE_EQ(s.availability.budget_remaining, 0.5);
  // Window expiry never refunds lifetime budget.
  const SloTracker::Snapshot later = tracker.snapshot(100 * kSecond);
  EXPECT_DOUBLE_EQ(later.availability.budget_remaining, 0.5);
}

TEST(SloTrackerTest, BudgetGoesNegativeWhenOverspent) {
  SloConfig config = tight_config();
  config.availability_objective = 0.9;
  SloTracker tracker(config);
  for (int i = 0; i < 80; ++i) tracker.record(100, true, 1'000);
  for (int i = 0; i < 20; ++i) tracker.record(100, false, 0);
  // 20% errors against a 10% budget: burn 2.0 -> remaining -1.0.
  EXPECT_DOUBLE_EQ(tracker.snapshot(200).availability.budget_remaining,
                   -1.0);
}

TEST(SloTrackerTest, RejectionsDoNotSkewTheLatencyObjective) {
  SloTracker tracker(tight_config());
  tracker.record(100, true, 50'000);    // fast enough
  tracker.record(100, true, 200'000);   // over threshold
  tracker.record(100, false, 999'999);  // rejected: availability only
  const SloTracker::Snapshot s = tracker.snapshot(200);
  EXPECT_EQ(s.latency.fast_total, 2u);
  EXPECT_EQ(s.latency.fast_bad, 1u);
  EXPECT_EQ(s.availability.fast_total, 3u);
  EXPECT_EQ(s.availability.fast_bad, 1u);
}

TEST(SloTrackerTest, FastBurnAlertIsAdvisoryThreshold) {
  SloTracker tracker(tight_config());
  // 2 bad / 100 = 2% error rate: burn 20 > 14.4 -> alert.
  for (int i = 0; i < 98; ++i) tracker.record(100, true, 1'000);
  tracker.record(100, false, 0);
  tracker.record(100, false, 0);
  EXPECT_TRUE(tracker.snapshot(200).fast_burn_alert);
  // One bad / 100 = burn 10 < 14.4 -> no alert.
  SloTracker calm(tight_config());
  for (int i = 0; i < 99; ++i) calm.record(100, true, 1'000);
  calm.record(100, false, 0);
  EXPECT_FALSE(calm.snapshot(200).fast_burn_alert);
}

TEST(SloTrackerTest, IdleTrackerReportsCleanDefaults) {
  SloTracker tracker(tight_config());
  const SloTracker::Snapshot s = tracker.snapshot(123 * kSecond);
  EXPECT_DOUBLE_EQ(s.availability.fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(s.availability.budget_remaining, 1.0);
  EXPECT_FALSE(s.fast_burn_alert);
}

TEST(SloTrackerTest, JsonCarriesBurnRatesAndBudget) {
  SloTracker tracker(tight_config());
  for (int i = 0; i < 99; ++i) tracker.record(100, true, 1'000);
  tracker.record(100, false, 0);
  const std::string json = tracker.to_json(200);
  EXPECT_NE(json.find("\"availability\":{"), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{"), std::string::npos);
  EXPECT_NE(json.find("\"fast_burn_rate\":10.000000"), std::string::npos);
  EXPECT_NE(json.find("\"error_budget_remaining\":"), std::string::npos);
  EXPECT_NE(json.find("\"fast_burn_alert\":false"), std::string::npos);
  EXPECT_NE(json.find("\"fast_window_s\":5"), std::string::npos);
  EXPECT_NE(json.find("\"slow_window_s\":20"), std::string::npos);
}

TEST(SloTrackerTest, GaugesMirrorTheSnapshot) {
  MetricsRegistry registry;
  SloTracker tracker(tight_config());
  tracker.register_gauges(&registry);
  for (int i = 0; i < 99; ++i) tracker.record(100, true, 1'000);
  tracker.record(100, false, 0);
  tracker.refresh_gauges(200);
  const std::string prom = registry.prometheus();
  // The burn rate is (1/100)/(1 - 0.999) — close to 10 but not exactly
  // representable, so pin the exact shortest-round-trip rendering.
  const std::string expected =
      "mev_slo_fast_burn_rate{objective=\"availability\"} " +
      prometheus_number((1.0 / 100.0) / (1.0 - 0.999));
  EXPECT_NE(prom.find(expected), std::string::npos) << prom;
  EXPECT_NE(prom.find("mev_slo_error_budget_remaining"), std::string::npos);
}

}  // namespace
}  // namespace mev::obs
