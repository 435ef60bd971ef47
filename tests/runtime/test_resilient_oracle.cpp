#include "runtime/resilient_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "runtime/fault_injection.hpp"

namespace mev::runtime {
namespace {

class ThresholdOracle final : public CountOracle {
 public:
  std::vector<int> label_counts(const math::Matrix& counts) override {
    record_queries(counts.rows());
    std::vector<int> labels(counts.rows());
    for (std::size_t i = 0; i < counts.rows(); ++i)
      labels[i] = counts(i, 0) > 5.0f ? 1 : 0;
    return labels;
  }
};

/// Throws a given error for the first N calls, then succeeds until
/// fail_next() takes it down again.
class FailNTimesOracle final : public CountOracle {
 public:
  explicit FailNTimesOracle(std::size_t n) : remaining_(n) {}
  void fail_next(std::size_t n) { remaining_ = n; }
  std::vector<int> label_counts(const math::Matrix& counts) override {
    ++calls;
    if (remaining_ > 0) {
      --remaining_;
      throw TransientOracleError("not yet");
    }
    record_queries(counts.rows());
    return std::vector<int>(counts.rows(), 1);
  }
  std::size_t calls = 0;

 private:
  std::size_t remaining_;
};

math::Matrix some_counts(std::size_t n, std::size_t d = 4) {
  math::Matrix m(n, d);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(i % 11);
  return m;
}

/// The wait after the n-th consecutive failure is min(1000, 10·2^(n−1)) ms
/// scaled by a jitter factor in [0.9, 1.1).
void expect_backoff(std::uint64_t slept_ms, std::size_t failures) {
  const double nominal = std::min(
      1000.0, 10.0 * std::pow(2.0, static_cast<double>(failures - 1)));
  EXPECT_GE(slept_ms, static_cast<std::uint64_t>(std::llround(0.9 * nominal)))
      << "after failure " << failures;
  EXPECT_LE(slept_ms, static_cast<std::uint64_t>(std::llround(1.1 * nominal)))
      << "after failure " << failures;
}

/// Drives a ResilientOracle through a sustained outage, then recovery,
/// then one more failure, and returns the recorded waits. The outage
/// spans three single-row calls of 5 failed attempts each: 4 waits in the
/// first call, then 5 in each later one (before every attempt, the first
/// included, as consecutive failures carry over). The recovering call
/// waits once more, a healthy call waits nothing, and the last call
/// fails once and waits once.
std::vector<std::uint64_t> outage_then_recovery() {
  FailNTimesOracle inner(15);
  FakeClock clock;
  ResilientOracle oracle(inner, &clock);
  for (int call = 0; call < 3; ++call)
    EXPECT_THROW(oracle.label_counts(some_counts(1)), PermanentOracleError);
  EXPECT_EQ(oracle.label_counts(some_counts(1)), std::vector<int>(1, 1));
  EXPECT_EQ(oracle.label_counts(some_counts(1)), std::vector<int>(1, 1));
  inner.fail_next(1);
  EXPECT_EQ(oracle.label_counts(some_counts(1)), std::vector<int>(1, 1));
  EXPECT_EQ(oracle.stats().backoff_ms, clock.total_slept_ms());
  return clock.sleeps();
}

TEST(ResilientOracle, CleanPathIsAPassThrough) {
  ThresholdOracle inner;
  FakeClock clock;
  ResilientOracle oracle(inner, &clock);
  ThresholdOracle reference;
  EXPECT_EQ(oracle.label_counts(some_counts(8)),
            reference.label_counts(some_counts(8)));
  EXPECT_EQ(oracle.queries(), 8u);
  const auto s = oracle.stats();
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.backoff_ms, 0u);
  EXPECT_TRUE(clock.sleeps().empty());
}

TEST(ResilientOracle, EmptyBatchShortCircuits) {
  ThresholdOracle inner;
  FakeClock clock;
  ResilientOracle oracle(inner, &clock);
  EXPECT_TRUE(oracle.label_counts(math::Matrix(0, 4)).empty());
  EXPECT_EQ(oracle.stats().calls, 0u);
}

TEST(ResilientOracle, RetriesTransientFailuresWithBackoff) {
  FailNTimesOracle inner(2);
  FakeClock clock;
  ResilientOracle oracle(inner, &clock);
  const auto labels = oracle.label_counts(some_counts(4));
  EXPECT_EQ(labels, std::vector<int>(4, 1));
  const auto s = oracle.stats();
  EXPECT_EQ(s.attempts, 3u);
  EXPECT_EQ(s.retries, 2u);
  // About 10 then 20 ms, simulated — never slept for real.
  ASSERT_EQ(clock.sleeps().size(), 2u);
  expect_backoff(clock.sleeps()[0], 1);
  expect_backoff(clock.sleeps()[1], 2);
  EXPECT_EQ(s.backoff_ms, clock.sleeps()[0] + clock.sleeps()[1]);
}

TEST(ResilientOracle, PermanentErrorsPropagateWithoutRetry) {
  class PermanentOracle final : public CountOracle {
   public:
    std::vector<int> label_counts(const math::Matrix&) override {
      ++calls;
      throw PermanentOracleError("gone");
    }
    std::size_t calls = 0;
  };
  PermanentOracle inner;
  FakeClock clock;
  ResilientOracle oracle(inner, &clock);
  EXPECT_THROW(oracle.label_counts(some_counts(3)), PermanentOracleError);
  EXPECT_EQ(inner.calls, 1u);
  EXPECT_EQ(oracle.stats().failed_queries, 3u);
}

TEST(ResilientOracle, WrongLengthResponsesAreRetried) {
  class GarbleOnceOracle final : public CountOracle {
   public:
    std::vector<int> label_counts(const math::Matrix& counts) override {
      record_queries(counts.rows());
      if (++calls == 1) return std::vector<int>(counts.rows() - 1, 0);
      return std::vector<int>(counts.rows(), 1);
    }
    std::size_t calls = 0;
  };
  GarbleOnceOracle inner;
  FakeClock clock;
  ResilientOracle oracle(inner, &clock);
  EXPECT_EQ(oracle.label_counts(some_counts(4)), std::vector<int>(4, 1));
  EXPECT_EQ(oracle.stats().garbled_batches, 1u);
  EXPECT_EQ(oracle.stats().retries, 1u);
}

/// The exact waits for the given nominal delays: each scaled by the next
/// factor of the oracle's fixed-seed (0x5eed) jitter stream, one draw per
/// wait.
std::vector<std::uint64_t> jittered(const std::vector<double>& nominal_ms) {
  math::Rng jitter(0x5eedULL);
  std::vector<std::uint64_t> waits;
  for (const double ms : nominal_ms)
    waits.push_back(static_cast<std::uint64_t>(
        std::llround(ms * jitter.uniform(1.0 - 0.1, 1.0 + 0.1))));
  return waits;
}

// The retry policy is fixed: 5 attempts, 10 ms initial backoff, ×2, a
// 1000 ms cap, ±10% jitter. These tests read it off the recorded waits.

// With the jitter factors replayed, the waits are exactly 10, 20, 40 and
// 80 ms before attempts 2..5.
TEST(RetryPolicy, ZeroJitterGivesExactExponentialSequence) {
  FailNTimesOracle inner(4);
  FakeClock clock;
  ResilientOracle oracle(inner, &clock);
  EXPECT_EQ(oracle.label_counts(some_counts(2)), std::vector<int>(2, 1));
  EXPECT_EQ(clock.sleeps(), jittered({10, 20, 40, 80}));
}

// From the 8th consecutive failure on (10·2^7 = 1280 ms) every wait is
// the 1000 ms cap, jittered, in every later call too.
TEST(RetryPolicy, DelayIsCappedAtMaxBackoff) {
  FailNTimesOracle inner(1000);
  FakeClock clock;
  ResilientOracle oracle(inner, &clock);
  for (int call = 0; call < 3; ++call)
    EXPECT_THROW(oracle.label_counts(some_counts(1)), PermanentOracleError);
  EXPECT_EQ(clock.sleeps(), jittered({10, 20, 40, 80, 160, 320, 640, 1000,
                                      1000, 1000, 1000, 1000, 1000, 1000}));
}

// 200 waits, each within ±10% of its nominal value, and spread over that
// band rather than pinned to the nominal.
TEST(RetryPolicy, JitterStaysWithinBounds) {
  FailNTimesOracle inner(100000);
  FakeClock clock;
  ResilientOracle oracle(inner, &clock);
  while (clock.sleeps().size() < 200)
    EXPECT_THROW(oracle.label_counts(some_counts(1)), PermanentOracleError);
  const std::vector<std::uint64_t>& sleeps = clock.sleeps();
  for (std::size_t i = 0; i < sleeps.size(); ++i)
    expect_backoff(sleeps[i], i + 1);
  const auto [lo, hi] = std::minmax_element(sleeps.begin() + 7, sleeps.end());
  EXPECT_LT(*lo, 1000u);
  EXPECT_GT(*hi, 1000u);
}

// There is no circuit breaker: the consecutive-failure count that sets the
// backoff exponent carries across calls. Under a sustained outage the
// waits double from 10 ms up to the 1000 ms cap an open breaker used to
// impose and stay there across calls; the first success resets the
// count, so the next failure waits about 10 ms again.
TEST(ResilientOracle, BreakerTripsOnRepeatedFailureAndRecovers) {
  const std::vector<std::uint64_t> sleeps = outage_then_recovery();
  ASSERT_EQ(sleeps.size(), 4u + 5u + 5u + 1u + 1u);
  for (std::size_t i = 0; i < 15; ++i) expect_backoff(sleeps[i], i + 1);
  for (std::size_t i = 7; i < 15; ++i) {
    EXPECT_GE(sleeps[i], 900u) << i;  // capped, call after call
    EXPECT_LE(sleeps[i], 1100u) << i;
  }
  expect_backoff(sleeps[15], 1);
}

// The jitter comes from a fixed-seed stream: the same failures give the
// same waits in every run, and the waits are jittered, not nominal.
TEST(ResilientOracle, BackoffJitterIsReproducible) {
  const std::vector<std::uint64_t> first = outage_then_recovery();
  const std::vector<std::uint64_t> second = outage_then_recovery();
  ASSERT_EQ(first.size(), 16u);
  EXPECT_EQ(first, second);
  std::size_t off_nominal = 0;
  for (std::size_t i = 0; i < 15; ++i) {
    const double nominal = std::min(
        1000.0, 10.0 * std::pow(2.0, static_cast<double>(i)));
    if (first[i] != static_cast<std::uint64_t>(nominal)) ++off_nominal;
  }
  EXPECT_GT(off_nominal, 7u);
}

TEST(ResilientOracle, BisectsBatchesTheOracleRefuses) {
  ThresholdOracle inner;
  FakeClock clock;
  // The oracle rejects batches above 3 rows; a 16-row submission must be
  // bisected down to <= 3-row pieces.
  FaultInjectingOracle flaky(inner, FaultProfile::tiny_batches(), &clock);
  ResilientOracle oracle(flaky, &clock);
  const math::Matrix counts = some_counts(16);
  ThresholdOracle reference;
  EXPECT_EQ(oracle.label_counts(counts), reference.label_counts(counts));
  EXPECT_GE(oracle.stats().bisections, 5u);
  EXPECT_EQ(oracle.queries(), 16u);       // logical rows, like fault-free
  EXPECT_GT(inner.queries(), 0u);
}

TEST(ResilientOracle, SingleRowExhaustionIsPermanent) {
  FailNTimesOracle inner(1000);
  FakeClock clock;
  ResilientOracle oracle(inner, &clock);
  EXPECT_THROW(oracle.label_counts(some_counts(1)), PermanentOracleError);
  EXPECT_EQ(oracle.stats().failed_queries, 1u);
}

TEST(ResilientOracle, TimeoutsAreCounted) {
  ThresholdOracle inner;
  FakeClock clock;
  FaultProfile profile;
  profile.timeout_rate = 1.0;
  profile.seed = 3;
  FaultInjectingOracle slow(inner, profile, &clock);
  ResilientOracle oracle(slow, &clock);
  EXPECT_THROW(oracle.label_counts(some_counts(1)), PermanentOracleError);
  EXPECT_EQ(oracle.stats().timeouts, 5u);
}

// The acceptance-criteria matrix: under EVERY built-in fault profile the
// resilient stack converges to exactly the fault-free labels.
TEST(ResilientOracle, EquivalenceMatrixAcrossBuiltinProfiles) {
  const math::Matrix counts = some_counts(32);
  ThresholdOracle reference;
  const std::vector<int> expected = reference.label_counts(counts);
  for (const FaultProfile& profile : FaultProfile::builtin_profiles()) {
    ThresholdOracle inner;
    FakeClock clock;
    FaultInjectingOracle flaky(inner, profile, &clock);
    ResilientOracle oracle(flaky, &clock);
    std::vector<int> got;
    ASSERT_NO_THROW(got = oracle.label_counts(counts)) << profile.name;
    EXPECT_EQ(got, expected) << profile.name;
    EXPECT_EQ(oracle.queries(), counts.rows()) << profile.name;
    if (profile.fail_first_calls > 0 || profile.max_batch_rows > 0) {
      EXPECT_GT(oracle.stats().retries + oracle.stats().bisections, 0u)
          << profile.name;
    }
  }
}

// One independent stack per thread over a shared fake-fault scenario —
// the concurrency model the sweep paths use (share nothing mutable).
// Exercised under TSan by the CI stress job.
TEST(ResilientOracle, IndependentStacksRunConcurrently) {
  const math::Matrix counts = some_counts(24);
  ThresholdOracle reference;
  const std::vector<int> expected = reference.label_counts(counts);
  constexpr int kThreads = 4;
  std::vector<std::vector<int>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThresholdOracle inner;
      FakeClock clock;
      FaultProfile profile = FaultProfile::flaky();
      profile.seed = 100 + static_cast<std::uint64_t>(t);
      FaultInjectingOracle flaky(inner, profile, &clock);
      ResilientOracle oracle(flaky, &clock);
      for (int repeat = 0; repeat < 20; ++repeat)
        results[static_cast<std::size_t>(t)] = oracle.label_counts(counts);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& r : results) EXPECT_EQ(r, expected);
}

TEST(FakeClock, SleepAdvancesTimeAndRecords) {
  FakeClock clock(100);
  EXPECT_EQ(clock.now_ms(), 100u);
  clock.sleep_ms(50);
  clock.sleep_ms(25);
  EXPECT_EQ(clock.now_ms(), 175u);
  ASSERT_EQ(clock.sleeps().size(), 2u);
  EXPECT_EQ(clock.total_slept_ms(), 75u);
  clock.advance(10);
  EXPECT_EQ(clock.now_ms(), 185u);
  EXPECT_EQ(clock.sleeps().size(), 2u);  // advance() is not a sleep
}

}  // namespace
}  // namespace mev::runtime
