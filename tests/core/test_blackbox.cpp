#include "core/blackbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/metrics.hpp"
#include "runtime/fault_injection.hpp"

namespace mev::core {
namespace {

/// A trivial oracle: malware iff feature 0's count exceeds a threshold.
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

math::Matrix seed_counts(std::size_t n, std::size_t d, std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix counts(n, d);
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts.data()[i] = static_cast<float>(rng.poisson(5.0));
  return counts;
}

BlackBoxConfig config(std::size_t input_dim) {
  BlackBoxConfig cfg;
  cfg.substitute_architecture.dims = {input_dim, 16, 2};
  cfg.substitute_architecture.seed = 4;
  cfg.training_per_round.epochs = 10;
  cfg.augmentation_rounds = 2;
  return cfg;
}

TEST(BlackBox, OracleCountsQueries) {
  ThresholdOracle oracle;
  oracle.label_counts(math::Matrix(7, 3));
  oracle.label_counts(math::Matrix(5, 3));
  EXPECT_EQ(oracle.queries(), 12u);
}

TEST(BlackBox, EmptySeedThrows) {
  ThresholdOracle oracle;
  EXPECT_THROW(run_blackbox_framework(oracle, math::Matrix(0, 4), config(4)),
               std::invalid_argument);
}

TEST(BlackBox, ArchitectureMismatchThrows) {
  ThresholdOracle oracle;
  EXPECT_THROW(
      run_blackbox_framework(oracle, seed_counts(10, 4, 1), config(5)),
      std::invalid_argument);
}

TEST(BlackBox, DatasetDoublesEachRound) {
  ThresholdOracle oracle;
  const auto result =
      run_blackbox_framework(oracle, seed_counts(16, 4, 2), config(4));
  ASSERT_EQ(result.rounds.size(), 3u);  // rounds 0..2
  EXPECT_EQ(result.rounds[0].dataset_rows, 16u);
  EXPECT_EQ(result.rounds[1].dataset_rows, 32u);
  EXPECT_EQ(result.rounds[2].dataset_rows, 64u);
  EXPECT_EQ(result.total_queries, 16u + 32u + 64u);
}

TEST(BlackBox, MaxRowsCapStopsAugmentation) {
  ThresholdOracle oracle;
  auto cfg = config(4);
  cfg.augmentation_rounds = 10;
  cfg.max_dataset_rows = 40;
  const auto result =
      run_blackbox_framework(oracle, seed_counts(16, 4, 3), cfg);
  EXPECT_LE(result.rounds.back().dataset_rows, 40u);
}

TEST(BlackBox, SubstituteLearnsSimpleOracle) {
  ThresholdOracle oracle;
  auto cfg = config(4);
  cfg.training_per_round.epochs = 25;
  const auto result =
      run_blackbox_framework(oracle, seed_counts(64, 4, 5), cfg);
  EXPECT_GT(result.rounds.back().oracle_agreement, 0.85);
  ASSERT_NE(result.substitute, nullptr);
  EXPECT_TRUE(result.attacker_transform.fitted());
}

TEST(BlackBox, RealizeCountsInvertsTransform) {
  features::CountTransform t;
  const math::Matrix counts = seed_counts(12, 5, 7);
  t.fit(counts);
  const math::Matrix features = t.apply(counts);
  const math::Matrix realized = realize_counts(t, features);
  EXPECT_EQ(realized, counts);
}

TEST(BlackBox, RealizeCountsIsTeamInvariant) {
  // 300 x 491 features, enough to split the rows across the team; both
  // scalings give the bits of a team of one at teams 2 and 3.
  const math::Matrix counts = seed_counts(300, 491, 19);
  for (const auto scaling :
       {features::CountScaling::kLinear, features::CountScaling::kLog1p}) {
    features::CountTransform t(scaling);
    t.fit(counts);
    math::Matrix features = t.apply(counts);
    math::Rng rng(20);
    for (std::size_t i = 0; i < features.size(); ++i)  // off-grid values
      features.data()[i] = std::min(
          1.0f, features.data()[i] + static_cast<float>(rng.uniform(0, 0.1)));
    std::vector<math::Matrix> got;
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    for (const int team : {1, 2, 3}) {
      omp_set_num_threads(team);
      got.push_back(realize_counts(t, features));
    }
    omp_set_num_threads(saved);
#else
    got.push_back(realize_counts(t, features));
#endif
    for (const math::Matrix& m : got)
      EXPECT_EQ(std::memcmp(m.data(), got.front().data(),
                            m.size() * sizeof(float)),
                0);
  }
}

std::string network_bytes(const nn::Network& net) {
  std::ostringstream os;
  nn::save_network(net, os);
  return os.str();
}

void expect_same_result(const BlackBoxResult& a, const BlackBoxResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].dataset_rows, b.rounds[i].dataset_rows) << i;
    EXPECT_EQ(a.rounds[i].oracle_queries, b.rounds[i].oracle_queries) << i;
    EXPECT_EQ(a.rounds[i].oracle_agreement, b.rounds[i].oracle_agreement)
        << i;
  }
  EXPECT_EQ(a.total_queries, b.total_queries);
  ASSERT_NE(a.substitute, nullptr);
  ASSERT_NE(b.substitute, nullptr);
  EXPECT_EQ(network_bytes(*a.substitute), network_bytes(*b.substitute));
}

TEST(BlackBox, MaxRowsBelowSeedThrows) {
  ThresholdOracle oracle;
  auto cfg = config(4);
  cfg.max_dataset_rows = 8;
  EXPECT_THROW(run_blackbox_framework(oracle, seed_counts(16, 4, 2), cfg),
               std::invalid_argument);
}

TEST(BlackBox, OracleResponseSizeMismatchThrows) {
  class ShortOracle final : public CountOracle {
   public:
    std::vector<int> label_counts(const math::Matrix& counts) override {
      return std::vector<int>(counts.rows() - 1, 0);
    }
  };
  ShortOracle oracle;
  EXPECT_THROW(
      run_blackbox_framework(oracle, seed_counts(16, 4, 2), config(4)),
      std::runtime_error);
}

TEST(BlackBox, RealizeCountsValidatesInputs) {
  features::CountTransform unfitted;
  EXPECT_THROW(realize_counts(unfitted, math::Matrix(2, 5)),
               std::invalid_argument);
  features::CountTransform t;
  t.fit(seed_counts(12, 5, 7));
  EXPECT_THROW(realize_counts(t, math::Matrix(2, 4)), std::invalid_argument);
}

// The run-level acceptance matrix: a resilient stack over a faulty oracle
// must produce a BIT-IDENTICAL BlackBoxResult (substitute weights, round
// stats, query totals) under every built-in fault profile.
TEST(BlackBox, FaultProfilesLeaveResultBitIdentical) {
  const math::Matrix seeds = seed_counts(16, 4, 2);
  const auto cfg = config(4);
  ThresholdOracle clean;
  const auto reference = run_blackbox_framework(clean, seeds, cfg);

  for (const auto& profile : runtime::FaultProfile::builtin_profiles()) {
    SCOPED_TRACE(profile.name);
    ThresholdOracle inner;
    runtime::FakeClock clock;
    runtime::FaultInjectingOracle flaky(inner, profile, &clock);
    runtime::ResilientOracle resilient(flaky, &clock);
    const auto result = run_blackbox_framework(resilient, seeds, cfg);
    expect_same_result(result, reference);
    // The per-round stats surface what resilience cost: under a profile
    // that injects faults, the final round reports the recovery work.
    EXPECT_EQ(result.rounds.back().resilience.calls, result.rounds.size());
    // All waiting was simulated on the fake clock (backoff plus any
    // injected timeout latency) — the test itself never slept.
    EXPECT_GE(clock.total_slept_ms(), resilient.stats().backoff_ms);
  }
}

// perfbench reuses one oracle across runs, so every statistic the loop
// reports must count only the current run's queries.
TEST(BlackBox, ReusedOracleReportsPerRunQueries) {
  const math::Matrix seeds = seed_counts(16, 4, 2);
  obs::MetricsRegistry registry;
  auto cfg = config(4);
  cfg.metrics = &registry;
  const obs::Counter queries_counter =
      registry.counter("mev.core.blackbox.oracle_queries");
  ThresholdOracle oracle;

  const auto first = run_blackbox_framework(oracle, seeds, cfg);
  EXPECT_EQ(queries_counter.value(), first.total_queries);
  const auto second = run_blackbox_framework(oracle, seeds, cfg);
  EXPECT_EQ(queries_counter.value(), 2 * first.total_queries);

  const std::vector<std::size_t> expected = {16u, 48u, 112u};
  for (const auto* result : {&first, &second}) {
    ASSERT_EQ(result->rounds.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(result->rounds[i].oracle_queries, expected[i]) << i;
    EXPECT_EQ(result->total_queries, expected.back());
  }
  EXPECT_EQ(oracle.queries(), 2 * expected.back());
  EXPECT_EQ(network_bytes(*second.substitute),
            network_bytes(*first.substitute));
}

// The same holds for the resilience figures: ResilientOracle::stats() is
// cumulative over the oracle's lifetime, the run reports its own share.
TEST(BlackBox, ReusedResilientOracleReportsPerRunResilience) {
  const math::Matrix seeds = seed_counts(16, 4, 2);
  obs::MetricsRegistry registry;
  auto cfg = config(4);
  cfg.metrics = &registry;
  const obs::Counter retries_counter =
      registry.counter("mev.core.blackbox.oracle_retries");
  ThresholdOracle inner;
  runtime::FakeClock clock;
  runtime::FaultInjectingOracle flaky(inner, runtime::FaultProfile::flaky(),
                                      &clock);
  runtime::ResilientOracle resilient(flaky, &clock);

  const auto first = run_blackbox_framework(resilient, seeds, cfg);
  const auto second = run_blackbox_framework(resilient, seeds, cfg);
  const runtime::ResilienceStats& run1 = first.rounds.back().resilience;
  const runtime::ResilienceStats& run2 = second.rounds.back().resilience;
  ASSERT_GT(run1.retries + run2.retries, 0u) << "the profile injected no fault";
  EXPECT_EQ(run1.retries + run2.retries, resilient.stats().retries);
  EXPECT_EQ(retries_counter.value(), resilient.stats().retries);
  EXPECT_EQ(run1.calls, first.rounds.size());
  EXPECT_EQ(run2.calls, second.rounds.size());
}

TEST(BlackBox, ResilienceStatsAreZeroForPlainOracles) {
  ThresholdOracle oracle;
  const auto result =
      run_blackbox_framework(oracle, seed_counts(16, 4, 2), config(4));
  for (const auto& round : result.rounds) {
    EXPECT_EQ(round.resilience.retries, 0u);
    EXPECT_EQ(round.resilience.calls, 0u);
  }
}

TEST(BlackBox, AgreementTendsUpward) {
  ThresholdOracle oracle;
  auto cfg = config(4);
  cfg.augmentation_rounds = 3;
  cfg.training_per_round.epochs = 20;
  const auto result =
      run_blackbox_framework(oracle, seed_counts(32, 4, 9), cfg);
  // The last round should agree at least as well as the first (Jacobian
  // augmentation adds informative boundary samples).
  EXPECT_GE(result.rounds.back().oracle_agreement,
            result.rounds.front().oracle_agreement - 0.05);
}

TEST(BlackBox, RoundPhaseDurationsArePopulated) {
  ThresholdOracle oracle;
  const auto result =
      run_blackbox_framework(oracle, seed_counts(16, 4, 11), config(4));
  ASSERT_EQ(result.rounds.size(), 3u);
  // Substitute training takes real wall time every round; the final
  // round never augments, so its augment duration stays zero.
  for (const auto& round : result.rounds) EXPECT_GT(round.train_us, 0u);
  EXPECT_EQ(result.rounds.back().augment_us, 0u);
}

}  // namespace
}  // namespace mev::core
