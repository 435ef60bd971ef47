#include "math/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace mev::math {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng(9);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexStaysBelowBound) {
  Rng rng(10);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 100ull, 1000000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_index(n), n);
  }
}

TEST(Rng, UniformIndexZeroReturnsZero) {
  Rng rng(11);
  EXPECT_EQ(rng.uniform_index(0), 0u);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(12);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntInclusiveBothEnds) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMeanAndVariance) {
  Rng rng(14);
  const int n = 100000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(15);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(16);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(18);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

class RngPoissonMean : public ::testing::TestWithParam<double> {};

TEST_P(RngPoissonMean, MeanMatchesLambda) {
  const double lambda = GetParam();
  Rng rng(19);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.poisson(lambda);
  EXPECT_NEAR(sum / n, lambda, std::max(0.05, lambda * 0.03));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, RngPoissonMean,
                         ::testing::Values(0.1, 0.5, 1.0, 5.0, 20.0, 50.0,
                                           100.0));

class RngGammaMean
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(RngGammaMean, MeanMatchesShapeTimesScale) {
  const auto [shape, scale] = GetParam();
  Rng rng(20);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.gamma(shape, scale);
  const double expected = shape * scale;
  EXPECT_NEAR(sum / n, expected, expected * 0.05 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RngGammaMean,
    ::testing::Values(std::pair{0.5, 1.0}, std::pair{1.0, 2.0},
                      std::pair{2.0, 0.5}, std::pair{3.0, 3.0},
                      std::pair{10.0, 0.1}));

TEST(Rng, GammaNonPositiveParamsReturnZero) {
  Rng rng(21);
  EXPECT_EQ(rng.gamma(0.0, 1.0), 0.0);
  EXPECT_EQ(rng.gamma(1.0, 0.0), 0.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(22);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(25);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(1);
  EXPECT_NE(rng(), rng());
}

}  // namespace
}  // namespace mev::math
