// Tests of the benchmark driver's pure helpers (src/helpers.hpp).
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <sstream>

#include "helpers.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

// ---- percentiles -----------------------------------------------------------

TEST(Percentile, NearestRankOverShuffledSamples) {
  std::vector<double> v = one_to(100);
  std::swap(v[3], v[97]);
  const Percentile p50 = percentile(v, 0, 0.5);
  EXPECT_TRUE(p50.reported);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  // p99 of 1000 samples has exactly 10 beyond it: reported.
  const Percentile at = percentile(one_to(1000), 0, 0.99);
  EXPECT_TRUE(at.reported);
  EXPECT_EQ(at.value, 990.0);
  EXPECT_EQ(at.beyond, 10u);
  // p99 of 999 samples has 9 beyond it: not reported.
  const Percentile below = percentile(one_to(999), 0, 0.99);
  EXPECT_FALSE(below.reported);
  EXPECT_EQ(below.beyond, 9u);
  // p50 needs at least 20 samples.
  EXPECT_TRUE(percentile(one_to(20), 0, 0.5).reported);
  EXPECT_FALSE(percentile(one_to(19), 0, 0.5).reported);
}

TEST(Percentile, FailuresRankAboveEverySuccess) {
  // 980 successes + 20 failures: p99 (rank 990) lands on a failure.
  const Percentile p99 = percentile(one_to(980), 20, 0.99);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_TRUE(p99.reported);
  EXPECT_TRUE(p99.miss);
  // The median is unaffected in value but its rank counts the failures.
  const Percentile p50 = percentile(one_to(980), 20, 0.5);
  EXPECT_FALSE(p50.miss);
  EXPECT_EQ(p50.value, 500.0);
  const Percentile p97 = percentile(one_to(980), 20, 0.97);
  EXPECT_FALSE(p97.miss);
  EXPECT_EQ(p97.value, 970.0);
}

TEST(Percentile, EmptySampleIsNotReported) {
  const Percentile p = percentile({}, 0, 0.5);
  EXPECT_FALSE(p.reported);
  EXPECT_EQ(p.samples, 0u);
}

// ---- Poisson schedules -----------------------------------------------------

TEST(PoissonSchedule, SameSeedSameSchedule) {
  EXPECT_EQ(poisson_schedule(7, 1000.0, 500), poisson_schedule(7, 1000.0, 500));
  EXPECT_NE(poisson_schedule(7, 1000.0, 500), poisson_schedule(8, 1000.0, 500));
}

TEST(PoissonSchedule, IncreasingAtTheOfferedRate) {
  const std::vector<double> at = poisson_schedule(42, 2000.0, 20000);
  for (std::size_t i = 1; i < at.size(); ++i) ASSERT_GT(at[i], at[i - 1]);
  // 20000 arrivals at 2000/s span ~10 s; the relative sd is 1/sqrt(n).
  EXPECT_NEAR(at.back(), 10.0, 0.3);
}

TEST(PoissonSchedule, PinnedFirstArrivals) {
  // The draw is spelled out (mt19937_64 + inverse CDF), so these values
  // hold on every platform; a change to the generator shows here.
  const std::vector<double> a = poisson_schedule(1, 1.0, 2);
  std::mt19937_64 gen(1);
  const double u0 = static_cast<double>(gen() >> 11) / 9007199254740992.0;
  const double u1 = static_cast<double>(gen() >> 11) / 9007199254740992.0;
  EXPECT_DOUBLE_EQ(a[0], -std::log1p(-u0));
  EXPECT_DOUBLE_EQ(a[1], a[0] - std::log1p(-u1));
}

TEST(DeriveSeed, StreamsDiffer) {
  EXPECT_EQ(derive_seed(5, 1), derive_seed(5, 1));
  EXPECT_NE(derive_seed(5, 1), derive_seed(5, 2));
  EXPECT_NE(derive_seed(5, 1), derive_seed(6, 1));
}

// ---- Server-Timing ---------------------------------------------------------

TEST(ServerTiming, ParsesTheFrontendHeader) {
  const auto t = parse_server_timing(
      "parse;dur=0.012, admission;dur=0.001, queue;dur=2.104, "
      "batch;dur=0.006, scan;dur=0.165, serialize;dur=0.004, "
      "total;dur=2.292");
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->stage_ms[0], 0.012);
  EXPECT_DOUBLE_EQ(t->stage_ms[2], 2.104);
  EXPECT_DOUBLE_EQ(t->stage_ms[4], 0.165);
  EXPECT_DOUBLE_EQ(t->stage_ms[5], 0.004);
  EXPECT_DOUBLE_EQ(t->total_ms, 2.292);
}

TEST(ServerTiming, ToleratesOrderSpacingAndExtraMetrics) {
  const auto t = parse_server_timing(
      "total;dur=1,scan;dur=0.5;desc=\"x\",cache;dur=9,serialize;dur=0.1,"
      "batch;dur=0,queue;dur=0.2,admission;dur=0,parse;dur=0.2");
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->stage_ms[4], 0.5);
  EXPECT_DOUBLE_EQ(t->total_ms, 1.0);
}

TEST(ServerTiming, RejectsMissingDuplicateOrBadStages) {
  EXPECT_FALSE(parse_server_timing("").has_value());
  EXPECT_FALSE(parse_server_timing(
                   "parse;dur=1, admission;dur=1, queue;dur=1, batch;dur=1, "
                   "scan;dur=1, total;dur=5")
                   .has_value());  // no serialize
  EXPECT_FALSE(parse_server_timing(
                   "parse;dur=1, parse;dur=1, admission;dur=1, queue;dur=1, "
                   "batch;dur=1, scan;dur=1, serialize;dur=1, total;dur=7")
                   .has_value());  // duplicate
  EXPECT_FALSE(parse_server_timing(
                   "parse;dur=-1, admission;dur=1, queue;dur=1, batch;dur=1, "
                   "scan;dur=1, serialize;dur=1, total;dur=5")
                   .has_value());  // negative
  EXPECT_FALSE(parse_server_timing(
                   "parse;dur=x, admission;dur=1, queue;dur=1, batch;dur=1, "
                   "scan;dur=1, serialize;dur=1, total;dur=5")
                   .has_value());  // not a number
}

// ---- spans -----------------------------------------------------------------

TEST(SpanLog, SelfTimeSubtractsChildrenOnce) {
  SpanLog log(true);
  const std::uint32_t root = log.add("net.request", 0, 1000, 0, 1);
  log.add("serve.queue", 100, 400, root, 1);
  log.add("serve.batch", 300, 500, root, 1);  // overlaps the queue span
  log.add("nn.scan", 900, 1200, root, 1);     // runs past the parent
  const auto self = log.self_seconds();
  EXPECT_DOUBLE_EQ(self.at("net"), (1000 - 400 - 100) * 1e-9);
  EXPECT_DOUBLE_EQ(self.at("serve"), (300 + 200) * 1e-9);
  EXPECT_DOUBLE_EQ(self.at("nn"), 300 * 1e-9);
}

TEST(SpanLog, DisabledRecordsNothing) {
  SpanLog log(false);
  EXPECT_EQ(log.add("net.request", 0, 1), 0u);
  EXPECT_EQ(log.begin("core.run"), 0u);
  log.end(0);
  EXPECT_TRUE(log.spans().empty());
}

TEST(SpanLog, WritesChromeTraceEvents) {
  SpanLog log(true);
  const std::uint32_t root = log.add("attack.Jsma.craft", 1000, 5000);
  log.add("nn.forward", 2000, 3000, root, 7);
  std::ostringstream os;
  log.write_chrome(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"nn.forward\",\"cat\":\"nn\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":1,\"dur\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":1,\"request\":7"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
