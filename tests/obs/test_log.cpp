// Structured logger behavior: the pinned JSON format under a FakeClock,
// level gating, field escaping, per-site token-bucket rate limiting with
// observable drop counters, and thread-safety of concurrent writers
// (exercised under TSan in CI).
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "runtime/clock.hpp"

namespace {

using mev::obs::LogField;
using mev::obs::Logger;
using mev::obs::LoggerConfig;
using mev::obs::LogLevel;
using mev::obs::MetricsRegistry;
using mev::runtime::FakeClock;

struct LogFixture {
  std::ostringstream out;
  FakeClock clock{5};  // 5 ms -> 5000 us timestamps
  MetricsRegistry registry;

  Logger make(LogLevel min_level = LogLevel::kInfo) {
    LoggerConfig config;
    config.min_level = min_level;
    config.sink = &out;
    config.clock = &clock;
    config.metrics = &registry;
    return Logger(config);
  }
};

TEST(Logger, JsonRecordIsPinned) {
  LogFixture f;
  Logger logger = f.make();
  logger.log(LogLevel::kInfo, "serve.service", "model swapped",
             {LogField::u64_value("version", 5),
              LogField::f64_value("agreement", 0.5),
              LogField::i64_value("delta", -2),
              LogField::string("mode", "drain")});
  EXPECT_EQ(f.out.str(),
            "{\"ts_us\":5000,\"level\":\"info\","
            "\"component\":\"serve.service\",\"msg\":\"model swapped\","
            "\"version\":5,\"agreement\":0.5,\"delta\":-2,"
            "\"mode\":\"drain\"}\n");
  EXPECT_EQ(logger.lines(), 1u);
}

TEST(Logger, RecordsBelowMinLevelAreDiscarded) {
  LogFixture f;
  Logger logger = f.make(LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
  logger.log(LogLevel::kInfo, "c", "suppressed");
  logger.log(LogLevel::kDebug, "c", "suppressed");
  EXPECT_EQ(f.out.str(), "");
  EXPECT_EQ(logger.lines(), 0u);
  logger.set_min_level(LogLevel::kDebug);
  logger.log(LogLevel::kDebug, "c", "now visible");
  EXPECT_EQ(logger.lines(), 1u);
}

TEST(Logger, JsonEscapesQuotesBackslashesAndControlBytes) {
  LogFixture f;
  Logger logger = f.make();
  logger.log(LogLevel::kInfo, "c", "say \"hi\" \\ there\n",
             {LogField::string("path", "a\\b")});
  const std::string line = f.out.str();
  EXPECT_NE(line.find("\"msg\":\"say \\\"hi\\\" \\\\ there\\u000a\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"path\":\"a\\\\b\""), std::string::npos) << line;
}

TEST(Logger, TokenBucketLimitsAndCountsDrops) {
  LogFixture f;
  Logger logger = f.make();
  mev::obs::LogSite site{/*rate_per_s=*/1.0, /*burst=*/2.0};
  // Burst of 2 admitted, the rest dropped...
  for (int i = 0; i < 10; ++i)
    logger.log_site(site, LogLevel::kWarn, "c", "flood");
  EXPECT_EQ(logger.lines(), 2u);
  EXPECT_EQ(logger.dropped(), 8u);
  // ...and the drops surface in the registry, so suppression is visible
  // on /metrics.
  EXPECT_EQ(f.registry.counter("mev.obs.log_dropped_total").value(), 8u);
  EXPECT_EQ(f.registry.counter("mev.obs.log_lines_total").value(), 2u);

  // One second later the bucket has refilled one token.
  f.clock.advance(1000);
  logger.log_site(site, LogLevel::kWarn, "c", "flood");
  logger.log_site(site, LogLevel::kWarn, "c", "flood");
  EXPECT_EQ(logger.lines(), 3u);
  EXPECT_EQ(logger.dropped(), 9u);
}

TEST(Logger, UnlimitedSiteNeverDrops) {
  LogFixture f;
  Logger logger = f.make();
  mev::obs::LogSite site;  // rate_per_s == 0: unlimited
  for (int i = 0; i < 50; ++i)
    logger.log_site(site, LogLevel::kInfo, "c", "spam");
  EXPECT_EQ(logger.lines(), 50u);
  EXPECT_EQ(logger.dropped(), 0u);
}

TEST(Logger, MacrosCompileAndGate) {
  LogFixture f;
  Logger logger = f.make(LogLevel::kWarn);
  MEV_LOG(logger, LogLevel::kInfo, "c", "gated out",
          {LogField::u64_value("n", 1)});
  EXPECT_EQ(logger.lines(), 0u);
  MEV_LOG(logger, LogLevel::kError, "c", "emitted");
  EXPECT_EQ(logger.lines(), 1u);
  // One macro occurrence = one static LogSite: looping over it shares the
  // bucket, so the second pass is dropped.
  for (int i = 0; i < 2; ++i)
    MEV_LOG_EVERY(logger, LogLevel::kWarn, /*rate_per_s=*/1.0, /*burst=*/1.0,
                  "c", "limited", {LogField::u64_value("n", 2)});
  EXPECT_EQ(logger.lines(), 2u);
  EXPECT_EQ(logger.dropped(), 1u);
}

// One MEV_LOG_EVERY occurrence that every caller shares, as the trainer's
// per-epoch log line is shared by every training run in a process.
void log_through_one_site(Logger& logger) {
  MEV_LOG_EVERY(logger, LogLevel::kWarn, /*rate_per_s=*/1.0, /*burst=*/1.0,
                "c", "shared site");
}

TEST(Logger, MacroSiteStartsFullForEachNewLogger) {
  // Each round's logger (likely at the same stack address) and FakeClock
  // (at the same time) are new; the site's bucket, drained by the round
  // before, must not carry over to them.
  for (int round = 0; round < 3; ++round) {
    LogFixture f;
    Logger logger = f.make();
    log_through_one_site(logger);
    log_through_one_site(logger);  // same logger, bucket drained
    EXPECT_EQ(logger.lines(), 1u) << "round " << round;
    EXPECT_EQ(logger.dropped(), 1u) << "round " << round;
  }
}

TEST(Logger, ConcurrentWritersProduceWholeLines) {
  LogFixture f;
  Logger logger = f.make();
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&logger, t] {
      for (int i = 0; i < kLines; ++i)
        logger.log(LogLevel::kInfo, "c", "line",
                   {LogField::i64_value("thread", t),
                    LogField::i64_value("i", i)});
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(logger.lines(),
            static_cast<std::uint64_t>(kThreads) * kLines);
  // Records never interleave: every line is valid on its own.
  std::istringstream lines(f.out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count, static_cast<std::size_t>(kThreads) * kLines);
}

TEST(LogLevelParsing, RoundTripsAndFallsBack) {
  using mev::obs::parse_log_level;
  EXPECT_EQ(parse_log_level("trace", LogLevel::kWarn), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("debug", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info", LogLevel::kWarn), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error", LogLevel::kWarn), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off", LogLevel::kWarn), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level(nullptr, LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_STREQ(mev::obs::to_string(LogLevel::kWarn), "warn");
}

}  // namespace
