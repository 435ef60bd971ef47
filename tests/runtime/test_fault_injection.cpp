#include "runtime/fault_injection.hpp"

#include <gtest/gtest.h>

namespace mev::runtime {
namespace {

/// Labels row i with counts(i, 0) > 5.
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

math::Matrix some_counts(std::size_t n, std::size_t d = 4) {
  math::Matrix m(n, d);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(i % 11);
  return m;
}

TEST(FaultInjection, NoneProfilePassesThrough) {
  ThresholdOracle inner;
  FakeClock clock;
  FaultInjectingOracle oracle(inner, FaultProfile::none(), &clock);
  const auto labels = oracle.label_counts(some_counts(8));
  EXPECT_EQ(labels, inner.label_counts(some_counts(8)));
  EXPECT_EQ(oracle.injected().faults(), 0u);
  EXPECT_EQ(oracle.queries(), 8u);
}

TEST(FaultInjection, FaultSequenceIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    ThresholdOracle inner;
    FakeClock clock;
    FaultProfile profile = FaultProfile::chaos();
    profile.max_batch_rows = 0;  // keep every call admissible
    profile.seed = seed;
    FaultInjectingOracle oracle(inner, profile, &clock);
    std::vector<int> outcome;  // 0 ok, 1..4 fault kinds
    for (int i = 0; i < 64; ++i) {
      try {
        oracle.label_counts(some_counts(2));
        outcome.push_back(0);
      } catch (const OracleError& e) {
        outcome.push_back(1 + static_cast<int>(e.kind()));
      }
    }
    return outcome;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(FaultInjection, OutageFailsTheFirstCalls) {
  ThresholdOracle inner;
  FakeClock clock;
  FaultProfile profile;
  profile.fail_first_calls = 3;
  FaultInjectingOracle oracle(inner, profile, &clock);
  for (int i = 0; i < 3; ++i)
    EXPECT_THROW(oracle.label_counts(some_counts(2)), TransientOracleError);
  EXPECT_NO_THROW(oracle.label_counts(some_counts(2)));
  EXPECT_EQ(oracle.injected().outage, 3u);
  EXPECT_EQ(inner.queries(), 2u);  // only the successful call reached it
}

TEST(FaultInjection, OversizedBatchesAreAlwaysRejected) {
  ThresholdOracle inner;
  FakeClock clock;
  FaultInjectingOracle oracle(inner, FaultProfile::tiny_batches(), &clock);
  EXPECT_THROW(oracle.label_counts(some_counts(4)), TransientOracleError);
  EXPECT_NO_THROW(oracle.label_counts(some_counts(3)));
  EXPECT_EQ(oracle.injected().oversized, 1u);
}

TEST(FaultInjection, TimeoutsAdvanceTheClock) {
  ThresholdOracle inner;
  FakeClock clock;
  FaultProfile profile;
  profile.timeout_rate = 1.0;
  FaultInjectingOracle oracle(inner, profile, &clock);
  EXPECT_THROW(oracle.label_counts(some_counts(2)), OracleTimeoutError);
  EXPECT_THROW(oracle.label_counts(some_counts(2)), OracleTimeoutError);
  EXPECT_EQ(clock.now_ms(), 100u);  // two timeouts of 50 ms
  EXPECT_EQ(oracle.injected().timeouts, 2u);
}

TEST(FaultInjection, GarbledResponsesHaveWrongLength) {
  ThresholdOracle inner;
  FakeClock clock;
  FaultProfile profile;
  profile.garble_rate = 1.0;
  FaultInjectingOracle oracle(inner, profile, &clock);
  const auto labels = oracle.label_counts(some_counts(5));
  EXPECT_EQ(labels.size(), 4u);  // one label dropped
  EXPECT_EQ(oracle.injected().garbled, 1u);
}

TEST(FaultInjection, ErrorTaxonomyClassifiesTransience) {
  EXPECT_TRUE(TransientOracleError("x").transient());
  EXPECT_TRUE(OracleTimeoutError("x").transient());
  EXPECT_TRUE(GarbledResponseError("x").transient());
  EXPECT_FALSE(PermanentOracleError("x").transient());
  EXPECT_EQ(OracleTimeoutError("x").kind(), FaultKind::kTimeout);
  EXPECT_STREQ(to_string(FaultKind::kPermanent), "permanent");
}

TEST(FaultInjection, BuiltinProfilesAreNamedAndNontrivial) {
  const auto profiles = FaultProfile::builtin_profiles();
  ASSERT_GE(profiles.size(), 5u);
  for (const auto& p : profiles) {
    EXPECT_NE(p.name, "none");
    EXPECT_TRUE(p.transient_rate > 0 || p.timeout_rate > 0 ||
                p.garble_rate > 0 || p.fail_first_calls > 0 ||
                p.max_batch_rows > 0)
        << p.name;
  }
}

}  // namespace
}  // namespace mev::runtime
