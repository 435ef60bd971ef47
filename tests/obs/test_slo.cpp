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
constexpr std::uint64_t kMinute = 60 * kSecond;

/// Burn at the availability objective, written as the tracker computes it:
/// (1 - 0.999) is not exactly 1e-3 in binary, so a rounded literal such
/// as 10.0 would be a few ULPs away.
double availability_burn(double bad, double total) {
  return (bad / total) / (1.0 - kSloAvailabilityObjective);
}

TEST(SloTrackerTest, BurnRateIsPinnedExactly) {
  SloTracker tracker;
  // 100 requests in one bucket, 1 rejected: error rate 1%, availability
  // budget 0.1% -> burn = 10.0 on both windows.
  for (int i = 0; i < 99; ++i) tracker.record(100, true, 1'000);
  tracker.record(100, false, 0);
  const SloTracker::Snapshot s = tracker.snapshot(200);
  EXPECT_EQ(s.availability.fast_total, 100u);
  EXPECT_EQ(s.availability.fast_bad, 1u);
  EXPECT_DOUBLE_EQ(s.availability.fast_burn, availability_burn(1, 100));
  EXPECT_DOUBLE_EQ(s.availability.slow_burn, availability_burn(1, 100));
  EXPECT_NEAR(s.availability.fast_burn, 10.0, 1e-9);
}

TEST(SloTrackerTest, FastWindowForgetsBeforeTheSlowWindow) {
  SloTracker tracker;
  // A burst of failures at t=1 min, then clean traffic.
  for (int i = 0; i < 10; ++i) tracker.record(kMinute, false, 0);
  for (int i = 0; i < 90; ++i) tracker.record(kMinute, true, 1'000);
  // 10 min later: the burst left the 5 min fast window but not the 1 h
  // slow one. Keep the fast window non-empty with a clean request.
  tracker.record(11 * kMinute, true, 1'000);
  const SloTracker::Snapshot s = tracker.snapshot(11 * kMinute + 1);
  EXPECT_EQ(s.availability.fast_bad, 0u);
  EXPECT_DOUBLE_EQ(s.availability.fast_burn, 0.0);
  EXPECT_EQ(s.availability.slow_bad, 10u);
  EXPECT_GT(s.availability.slow_burn, 0.0);
}

TEST(SloTrackerTest, ErrorBudgetRemainingIsLifetimeBased) {
  SloTracker tracker;
  // 0.05% lifetime error rate = half the 0.1% budget spent.
  for (int i = 0; i < 1999; ++i) tracker.record(100, true, 1'000);
  tracker.record(100, false, 0);
  const SloTracker::Snapshot s = tracker.snapshot(200);
  EXPECT_EQ(s.availability.lifetime_total, 2000u);
  EXPECT_EQ(s.availability.lifetime_bad, 1u);
  EXPECT_DOUBLE_EQ(s.availability.budget_remaining,
                   1.0 - availability_burn(1, 2000));
  EXPECT_NEAR(s.availability.budget_remaining, 0.5, 1e-9);
  // Window expiry never refunds lifetime budget: 2 h later both windows
  // are empty.
  const SloTracker::Snapshot later = tracker.snapshot(120 * kMinute);
  EXPECT_EQ(later.availability.slow_total, 0u);
  EXPECT_DOUBLE_EQ(later.availability.budget_remaining,
                   s.availability.budget_remaining);
}

TEST(SloTrackerTest, BudgetGoesNegativeWhenOverspent) {
  SloTracker tracker;
  for (int i = 0; i < 997; ++i) tracker.record(100, true, 1'000);
  for (int i = 0; i < 3; ++i) tracker.record(100, false, 0);
  // 0.3% errors against a 0.1% budget: burn 3 -> remaining -2.
  const double remaining =
      tracker.snapshot(200).availability.budget_remaining;
  EXPECT_DOUBLE_EQ(remaining, 1.0 - availability_burn(3, 1000));
  EXPECT_NEAR(remaining, -2.0, 1e-9);
}

TEST(SloTrackerTest, RejectionsDoNotSkewTheLatencyObjective) {
  SloTracker tracker;
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
  SloTracker tracker;
  // 2 bad / 100 = 2% error rate: burn 20 > 14.4 -> alert.
  for (int i = 0; i < 98; ++i) tracker.record(100, true, 1'000);
  tracker.record(100, false, 0);
  tracker.record(100, false, 0);
  EXPECT_TRUE(tracker.snapshot(200).fast_burn_alert);
  // One bad / 100 = burn 10 < 14.4 -> no alert.
  SloTracker calm;
  for (int i = 0; i < 99; ++i) calm.record(100, true, 1'000);
  calm.record(100, false, 0);
  EXPECT_FALSE(calm.snapshot(200).fast_burn_alert);
}

TEST(SloTrackerTest, IdleTrackerReportsCleanDefaults) {
  SloTracker tracker;
  const SloTracker::Snapshot s = tracker.snapshot(123 * kSecond);
  EXPECT_DOUBLE_EQ(s.availability.fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(s.availability.budget_remaining, 1.0);
  EXPECT_FALSE(s.fast_burn_alert);
}

TEST(SloTrackerTest, JsonCarriesBurnRatesAndBudget) {
  SloTracker tracker;
  for (int i = 0; i < 99; ++i) tracker.record(100, true, 1'000);
  tracker.record(100, false, 0);
  const std::string json = tracker.to_json(200);
  EXPECT_NE(json.find("\"availability\":{"), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{"), std::string::npos);
  EXPECT_NE(json.find("\"fast_burn_rate\":10.000000"), std::string::npos);
  EXPECT_NE(json.find("\"error_budget_remaining\":"), std::string::npos);
  EXPECT_NE(json.find("\"fast_burn_alert\":false"), std::string::npos);
  EXPECT_NE(json.find("\"fast_window_s\":300,"), std::string::npos);
  EXPECT_NE(json.find("\"slow_window_s\":3600,"), std::string::npos);
  EXPECT_NE(json.find("\"latency_threshold_us\":100000"), std::string::npos);
}

TEST(SloTrackerTest, GaugesMirrorTheSnapshot) {
  MetricsRegistry registry;
  SloTracker tracker;
  tracker.register_gauges(&registry);
  for (int i = 0; i < 99; ++i) tracker.record(100, true, 1'000);
  tracker.record(100, false, 0);
  tracker.refresh_gauges(200);
  const std::string prom = registry.prometheus();
  // The burn rate is close to 10 but not exactly representable, so pin
  // the exact shortest-round-trip rendering.
  const std::string expected =
      "mev_slo_fast_burn_rate{objective=\"availability\"} " +
      prometheus_number(availability_burn(1, 100));
  EXPECT_NE(prom.find(expected), std::string::npos) << prom;
  EXPECT_NE(prom.find("mev_slo_error_budget_remaining"), std::string::npos);
}

}  // namespace
}  // namespace mev::obs
