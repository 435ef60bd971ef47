// MetricsRegistry behavior: handle semantics, the Prometheus text
// exposition golden file, the JSON snapshot, and thread-safety of handle
// updates (exercised under TSan in CI).
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "runtime/clock.hpp"

namespace {

using mev::obs::Counter;
using mev::obs::MetricsRegistry;

// The exposition escaping helpers are pure string code.
TEST(PrometheusEscaping, HelpTextEscapesBackslashAndNewline) {
  EXPECT_EQ(mev::obs::prometheus_escape_help("plain help"), "plain help");
  EXPECT_EQ(mev::obs::prometheus_escape_help("a\\b"), "a\\\\b");
  EXPECT_EQ(mev::obs::prometheus_escape_help("line1\nline2"),
            "line1\\nline2");
  // Double quotes are NOT escaped in HELP text (only in label values).
  EXPECT_EQ(mev::obs::prometheus_escape_help("say \"hi\""), "say \"hi\"");
}

TEST(PrometheusEscaping, LabelValuesEscapeQuotesBackslashAndNewline) {
  EXPECT_EQ(mev::obs::prometheus_escape_label_value("plain"), "plain");
  EXPECT_EQ(mev::obs::prometheus_escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(mev::obs::prometheus_escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(mev::obs::prometheus_escape_label_value("a\nb"), "a\\nb");
  EXPECT_EQ(mev::obs::prometheus_escape_label_value("\\\"\n"),
            "\\\\\\\"\\n");
}

TEST(PrometheusEscaping, NumbersRenderNanAndInfinities) {
  EXPECT_EQ(mev::obs::prometheus_number(
                std::numeric_limits<double>::quiet_NaN()),
            "NaN");
  EXPECT_EQ(
      mev::obs::prometheus_number(std::numeric_limits<double>::infinity()),
      "+Inf");
  EXPECT_EQ(
      mev::obs::prometheus_number(-std::numeric_limits<double>::infinity()),
      "-Inf");
  EXPECT_EQ(mev::obs::prometheus_number(2.0), "2");
  EXPECT_EQ(mev::obs::prometheus_number(0.5), "0.5");
}

TEST(MetricsRegistry, EmptyRegistryExportsEmptyExposition) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.prometheus(), "");
  EXPECT_EQ(registry.json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}\n");
}

TEST(MetricsRegistry, HelpTextWithNewlineStaysOneExpositionLine) {
  MetricsRegistry registry;
  registry.counter("mev.test.esc", "first\nsecond \\ slash").inc();
  EXPECT_EQ(registry.prometheus(),
            "# HELP mev_test_esc first\\nsecond \\\\ slash\n"
            "# TYPE mev_test_esc counter\n"
            "mev_test_esc 1\n");
}

TEST(MetricsRegistry, NonFiniteGaugeValuesExportPrometheusAndJsonSafely) {
  MetricsRegistry registry;
  registry.gauge("mev.test.nan").set(std::nan(""));
  registry.gauge("mev.test.pinf").set(
      std::numeric_limits<double>::infinity());
  registry.gauge("mev.test.ninf").set(
      -std::numeric_limits<double>::infinity());
  EXPECT_EQ(registry.prometheus(),
            "# TYPE mev_test_nan gauge\n"
            "mev_test_nan NaN\n"
            "# TYPE mev_test_pinf gauge\n"
            "mev_test_pinf +Inf\n"
            "# TYPE mev_test_ninf gauge\n"
            "mev_test_ninf -Inf\n");
  // JSON has no NaN/Infinity literals; non-finite values become null so
  // the snapshot stays parseable.
  EXPECT_EQ(registry.json(),
            "{\"counters\":{},"
            "\"gauges\":{\"mev.test.nan\":null,"
            "\"mev.test.pinf\":null,\"mev.test.ninf\":null},"
            "\"histograms\":{}}\n");
}

TEST(MetricsRegistry, PrometheusGoldenFile) {
  MetricsRegistry registry;
  Counter queries = registry.counter("mev.test.queries", "total queries");
  queries.inc(3);
  registry.gauge("mev.test.loss", "last loss").set(0.5);
  mev::obs::Histogram latency =
      registry.histogram("mev.test.latency_us", "latency");
  latency.record(0);
  latency.record(1);
  latency.record(5);
  latency.record(9);

  // Pinned 0.0.4 text exposition: sanitized names, HELP/TYPE preambles,
  // cumulative integer le buckets (0, 1, 3, 7, 15 = the log2 bucket
  // upper bounds) plus +Inf/_sum/_count.
  EXPECT_EQ(registry.prometheus(),
            "# HELP mev_test_queries total queries\n"
            "# TYPE mev_test_queries counter\n"
            "mev_test_queries 3\n"
            "# HELP mev_test_loss last loss\n"
            "# TYPE mev_test_loss gauge\n"
            "mev_test_loss 0.5\n"
            "# HELP mev_test_latency_us latency\n"
            "# TYPE mev_test_latency_us histogram\n"
            "mev_test_latency_us_bucket{le=\"0\"} 1\n"
            "mev_test_latency_us_bucket{le=\"1\"} 2\n"
            "mev_test_latency_us_bucket{le=\"3\"} 2\n"
            "mev_test_latency_us_bucket{le=\"7\"} 3\n"
            "mev_test_latency_us_bucket{le=\"15\"} 4\n"
            "mev_test_latency_us_bucket{le=\"+Inf\"} 4\n"
            "mev_test_latency_us_sum 15\n"
            "mev_test_latency_us_count 4\n");
}

TEST(MetricsRegistry, JsonSnapshotIsPinned) {
  MetricsRegistry registry;
  registry.counter("mev.test.queries").inc(3);
  registry.gauge("mev.test.loss").set(0.5);
  mev::obs::Histogram latency = registry.histogram("mev.test.latency_us");
  latency.record(0);
  latency.record(1);
  latency.record(5);
  latency.record(9);

  EXPECT_EQ(registry.json(),
            "{\"counters\":{\"mev.test.queries\":3},"
            "\"gauges\":{\"mev.test.loss\":0.5},"
            "\"histograms\":{\"mev.test.latency_us\":"
            "{\"count\":4,\"mean\":3.75,\"min\":0,\"max\":9,"
            "\"p50\":2,\"p95\":9,\"p99\":9}}}\n");
}

TEST(MetricsRegistry, SameNameReturnsTheSameCell) {
  MetricsRegistry registry;
  Counter a = registry.counter("mev.test.shared");
  Counter b = registry.counter("mev.test.shared");
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(b.value(), 2u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchAndEmptyNameThrow) {
  MetricsRegistry registry;
  registry.counter("mev.test.thing");
  EXPECT_THROW((void)registry.gauge("mev.test.thing"), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("mev.test.thing"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.counter(""), std::invalid_argument);
}

TEST(MetricsRegistry, DigitPrefixedNamesAreSanitizedForPrometheus) {
  MetricsRegistry registry;
  registry.counter("9lives-of.cats").inc();
  const std::string text = registry.prometheus();
  EXPECT_NE(text.find("_9lives_of_cats 1\n"), std::string::npos);
}

TEST(MetricsRegistry, LabeledCellsAreDistinctPerLabelSet) {
  MetricsRegistry registry;
  Counter full = registry.counter("mev.test.rejected", "rejections",
                                  {{"reason", "queue_full"}});
  Counter deadline = registry.counter("mev.test.rejected", "rejections",
                                      {{"reason", "deadline"}});
  full.inc(2);
  deadline.inc(5);
  EXPECT_EQ(full.value(), 2u);
  EXPECT_EQ(deadline.value(), 5u);
  EXPECT_EQ(registry.size(), 2u);
  // The same (name, labels) pair resolves to the same cell.
  Counter again = registry.counter("mev.test.rejected", "rejections",
                                   {{"reason", "queue_full"}});
  again.inc();
  EXPECT_EQ(full.value(), 3u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, LabeledFamilyExportsOneHeaderManySamples) {
  MetricsRegistry registry;
  registry
      .counter("mev.test.rejected", "rejections", {{"reason", "queue_full"}})
      .inc(2);
  registry.counter("mev.test.rejected", "rejections", {{"reason", "deadline"}})
      .inc(5);
  EXPECT_EQ(registry.prometheus(),
            "# HELP mev_test_rejected rejections\n"
            "# TYPE mev_test_rejected counter\n"
            "mev_test_rejected{reason=\"queue_full\"} 2\n"
            "mev_test_rejected{reason=\"deadline\"} 5\n");
}

TEST(MetricsRegistry, LabeledJsonKeysCarryTheLabelSet) {
  MetricsRegistry registry;
  registry.counter("mev.test.rejected", "", {{"reason", "overloaded"}}).inc(7);
  registry.gauge("mev.test.depth", "", {{"shard", "0"}}).set(1.5);
  EXPECT_EQ(registry.json(),
            "{\"counters\":{\"mev.test.rejected{reason=overloaded}\":7},"
            "\"gauges\":{\"mev.test.depth{shard=0}\":1.5},"
            "\"histograms\":{}}\n");
}

TEST(MetricsRegistry, KindConflictAcrossLabelSetsThrows) {
  MetricsRegistry registry;
  registry.counter("mev.test.family", "", {{"reason", "a"}});
  // One name owns one TYPE: a gauge under the same family name is
  // invalid even with different labels.
  EXPECT_THROW((void)registry.gauge("mev.test.family", "", {{"reason", "b"}}),
               std::invalid_argument);
}

TEST(MetricsRegistry, DefaultConstructedHandlesAreInert) {
  Counter counter;
  counter.inc(5);
  EXPECT_EQ(counter.value(), 0u);
  mev::obs::Gauge gauge;
  gauge.set(3.0);
  EXPECT_EQ(gauge.value(), 0.0);
  mev::obs::Histogram histogram;
  histogram.record(7);
  EXPECT_EQ(histogram.snapshot().count(), 0u);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter counter = registry.counter("mev.test.concurrent");
  mev::obs::Histogram histogram = registry.histogram("mev.test.conc_hist");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter, &histogram] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.inc();
        histogram.record(static_cast<std::uint64_t>(i));
      }
    });
  // Concurrent export must be safe.
  for (int i = 0; i < 10; ++i) (void)registry.prometheus();
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(histogram.snapshot().count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistry, WindowedPrometheusGoldenFile) {
  // Pinned windowed exposition: the lifetime family is a plain histogram
  // to scrapers, followed by the `<name>_window{window=...,stat=...}`
  // gauge family evaluated against the registered FakeClock.
  mev::runtime::FakeClock clock;  // ms-based; now_us = ms * 1000
  MetricsRegistry registry;
  mev::obs::WindowedHistogram latency = registry.windowed_histogram(
      "mev.test.win_us", "windowed latency", &clock);
  clock.advance(280'000);  // t = 280 s, inside the default 5-min ring
  latency.record(0);
  latency.record(1);
  latency.record(5);
  latency.record(9);

  clock.advance(10'000);  // read at t = 290 s: both windows see the burst
  EXPECT_EQ(registry.prometheus(),
            "# HELP mev_test_win_us windowed latency\n"
            "# TYPE mev_test_win_us histogram\n"
            "mev_test_win_us_bucket{le=\"0\"} 1\n"
            "mev_test_win_us_bucket{le=\"1\"} 2\n"
            "mev_test_win_us_bucket{le=\"3\"} 2\n"
            "mev_test_win_us_bucket{le=\"7\"} 3\n"
            "mev_test_win_us_bucket{le=\"15\"} 4\n"
            "mev_test_win_us_bucket{le=\"+Inf\"} 4\n"
            "mev_test_win_us_sum 15\n"
            "mev_test_win_us_count 4\n"
            "# HELP mev_test_win_us_window windowed p50/p95/p99/count of "
            "mev_test_win_us\n"
            "# TYPE mev_test_win_us_window gauge\n"
            "mev_test_win_us_window{window=\"1m\",stat=\"p50\"} 2\n"
            "mev_test_win_us_window{window=\"1m\",stat=\"p95\"} 9\n"
            "mev_test_win_us_window{window=\"1m\",stat=\"p99\"} 9\n"
            "mev_test_win_us_window{window=\"1m\",stat=\"count\"} 4\n"
            "mev_test_win_us_window{window=\"5m\",stat=\"p50\"} 2\n"
            "mev_test_win_us_window{window=\"5m\",stat=\"p95\"} 9\n"
            "mev_test_win_us_window{window=\"5m\",stat=\"p99\"} 9\n"
            "mev_test_win_us_window{window=\"5m\",stat=\"count\"} 4\n");
  EXPECT_EQ(registry.json(),
            "{\"counters\":{},\"gauges\":{},"
            "\"histograms\":{\"mev.test.win_us\":"
            "{\"count\":4,\"mean\":3.75,\"min\":0,\"max\":9,"
            "\"p50\":2,\"p95\":9,\"p99\":9,"
            "\"window_1m\":{\"count\":4,\"p50\":2,\"p95\":9,\"p99\":9},"
            "\"window_5m\":{\"count\":4,\"p50\":2,\"p95\":9,\"p99\":9}}}}"
            "\n");

  // t = 345 s: the burst left the 1m window (cutoff 285 s) but not the
  // 5m window; the lifetime family never forgets.
  clock.advance(55'000);
  const std::string text = registry.prometheus();
  EXPECT_NE(
      text.find("mev_test_win_us_window{window=\"1m\",stat=\"count\"} 0\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("mev_test_win_us_window{window=\"1m\",stat=\"p99\"} 0\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("mev_test_win_us_window{window=\"5m\",stat=\"count\"} 4\n"),
      std::string::npos);
  EXPECT_NE(text.find("mev_test_win_us_count 4\n"), std::string::npos);
}

TEST(MetricsRegistry, WindowedHistogramHandleExposesBothViews) {
  mev::runtime::FakeClock clock;
  MetricsRegistry registry;
  mev::obs::WindowedHistogram h =
      registry.windowed_histogram("mev.test.win_handle", "", &clock);
  clock.advance(1'000);
  h.record(7);
  clock.advance(120'000);  // 2 min later: out of 1m, inside 5m
  h.record(3);
  EXPECT_EQ(h.lifetime().count(), 2u);
  EXPECT_EQ(h.windowed(60'000'000).count(), 1u);
  EXPECT_EQ(h.windowed(300'000'000).count(), 2u);
  // Same (name, labels) resolves to the same cell, same ring.
  mev::obs::WindowedHistogram again =
      registry.windowed_histogram("mev.test.win_handle", "", &clock);
  again.record(1);
  EXPECT_EQ(h.lifetime().count(), 3u);
  // A windowed histogram's name owns its kind like any other metric.
  EXPECT_THROW((void)registry.histogram("mev.test.win_handle"),
               std::invalid_argument);
}

TEST(MetricsRegistry, ApiIsCallableInEveryBuildConfiguration) {
  // In stub builds every call is an inert no-op; in full builds this is
  // just a smoke pass. Either way it must compile and not crash.
  MetricsRegistry registry;
  registry.counter("mev.test.smoke").inc();
  registry.gauge("mev.test.smoke_gauge").set(1.0);
  registry.histogram("mev.test.smoke_hist").record(1);
  mev::runtime::FakeClock clock;
  mev::obs::WindowedHistogram windowed =
      registry.windowed_histogram("mev.test.smoke_win", "", &clock);
  windowed.record(1);
  (void)windowed.lifetime();
  (void)windowed.windowed(60'000'000);
  (void)registry.prometheus();
  (void)registry.json();
  SUCCEED();
}

}  // namespace
