#include "features/transform.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <sstream>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "math/rng.hpp"

namespace mev::features {
namespace {

math::Matrix train_counts() {
  return math::Matrix{{0, 2, 10}, {4, 0, 5}, {2, 8, 0}};
}

TEST(CountTransform, LinearScalesByMax) {
  CountTransform t(CountScaling::kLinear);
  t.fit(train_counts());
  const std::vector<float> row{2, 4, 5};
  const auto out = t.apply_row(row);
  EXPECT_NEAR(out[0], 0.5f, 1e-6);   // max 4
  EXPECT_NEAR(out[1], 0.5f, 1e-6);   // max 8
  EXPECT_NEAR(out[2], 0.5f, 1e-6);   // max 10
}

TEST(CountTransform, Log1pScales) {
  CountTransform t(CountScaling::kLog1p);
  t.fit(train_counts());
  const std::vector<float> row{4, 0, 0};
  const auto out = t.apply_row(row);
  EXPECT_NEAR(out[0], 1.0f, 1e-6);  // at training max
  EXPECT_EQ(out[1], 0.0f);
}

TEST(CountTransform, OutputsClampedToUnitInterval) {
  CountTransform t;
  t.fit(train_counts());
  const std::vector<float> row{100, 100, 100};  // above training max
  for (float v : t.apply_row(row)) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
  const std::vector<float> neg{-5, -5, -5};
  for (float v : t.apply_row(neg)) EXPECT_EQ(v, 0.0f);
}

TEST(CountTransform, UnseenFeatureUsesFloorDenominator) {
  // A feature never observed (all zeros) must not divide by zero; one call
  // maps to a full-scale feature.
  CountTransform t;
  t.fit(math::Matrix{{0, 0}, {0, 0}});
  const std::vector<float> row{1, 3};
  const auto out = t.apply_row(row);
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[1], 1.0f);
}

class CountTransformRoundTrip
    : public ::testing::TestWithParam<CountScaling> {};

TEST_P(CountTransformRoundTrip, InverseRecoversIntegerCounts) {
  CountTransform t(GetParam());
  math::Rng rng(5);
  math::Matrix counts(20, 10);
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts.data()[i] = static_cast<float>(rng.poisson(4.0));
  t.fit(counts);
  // Property: counts_for_feature_value(apply(c)) == c for in-range counts.
  for (std::size_t r = 0; r < counts.rows(); ++r) {
    const auto features = t.apply_row(counts.row(r));
    for (std::size_t c = 0; c < counts.cols(); ++c) {
      EXPECT_EQ(t.counts_for_feature_value(c, features[c]),
                static_cast<std::size_t>(counts(r, c)))
          << "row " << r << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothScalings, CountTransformRoundTrip,
                         ::testing::Values(CountScaling::kLinear,
                                           CountScaling::kLog1p));

TEST(CountTransform, CountsForFeatureValueErrors) {
  CountTransform t;
  EXPECT_THROW(t.counts_for_feature_value(0, 0.5f), std::logic_error);
  t.fit(train_counts());
  EXPECT_THROW(t.counts_for_feature_value(99, 0.5f), std::out_of_range);
}

TEST(CountTransform, ApplyBeforeFitThrows) {
  CountTransform t;
  const std::vector<float> row{1, 2, 3};
  EXPECT_THROW(t.apply_row(row), std::logic_error);
}

TEST(CountTransform, DimensionMismatchThrows) {
  CountTransform t;
  t.fit(train_counts());
  const std::vector<float> row{1, 2};
  EXPECT_THROW(t.apply_row(row), std::invalid_argument);
}

TEST(CountTransform, FitEmptyThrows) {
  CountTransform t;
  EXPECT_THROW(t.fit(math::Matrix()), std::invalid_argument);
}

TEST(CountTransform, SaveLoadRoundTrip) {
  CountTransform t(CountScaling::kLog1p);
  t.fit(train_counts());
  std::stringstream buffer;
  t.save(buffer);
  const CountTransform loaded = CountTransform::load(buffer);
  EXPECT_EQ(loaded.scaling(), CountScaling::kLog1p);
  EXPECT_EQ(loaded.denominators(), t.denominators());
}

TEST(CountTransform, LoadRejectsGarbage) {
  std::stringstream buffer("whatever 3");
  EXPECT_THROW(CountTransform::load(buffer), std::runtime_error);
  std::stringstream truncated("linear 5\n1.0\n");
  EXPECT_THROW(CountTransform::load(truncated), std::runtime_error);
}

TEST(CountTransform, CloneIsIndependent) {
  CountTransform t;
  t.fit(train_counts());
  auto clone = t.clone();
  EXPECT_EQ(clone->dim(), t.dim());
  EXPECT_EQ(clone->name(), "count");
}

TEST(BinaryTransform, PresenceAbsence) {
  const BinaryTransform t(3);
  const std::vector<float> row{0, 1, 7};
  const auto out = t.apply_row(row);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 1.0f);
  EXPECT_EQ(out[2], 1.0f);
}

TEST(BinaryTransform, DimMismatchThrows) {
  const BinaryTransform t(3);
  const std::vector<float> row{1, 2};
  EXPECT_THROW(t.apply_row(row), std::invalid_argument);
}

TEST(FeatureTransform, BatchApplyMatchesRowApply) {
  CountTransform t;
  const math::Matrix counts = train_counts();
  t.fit(counts);
  const math::Matrix batch = t.apply(counts);
  for (std::size_t r = 0; r < counts.rows(); ++r) {
    const auto row = t.apply_row(counts.row(r));
    for (std::size_t c = 0; c < counts.cols(); ++c)
      EXPECT_EQ(batch(r, c), row[c]);
  }
}

TEST(FeatureTransform, BatchApplyIsTeamInvariant) {
  // 300 x 491 counts: enough elements to split the rows across the team.
  // Every scaling and both transforms give the bits of a team of one,
  // with the validation on row 0 still throwing before any region.
  math::Rng rng(23);
  math::Matrix counts(300, 491);
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts.data()[i] = static_cast<float>(rng.poisson(2.0));
  CountTransform linear, log1p(CountScaling::kLog1p);
  linear.fit(counts);
  log1p.fit(counts);
  const BinaryTransform binary(491);
  for (const FeatureTransform* t :
       std::initializer_list<const FeatureTransform*>{&linear, &log1p,
                                                      &binary}) {
    std::vector<math::Matrix> got;
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    for (const int team : {1, 2, 3}) {
      omp_set_num_threads(team);
      got.push_back(t->apply(counts));
      EXPECT_THROW(t->apply(math::Matrix(300, 490)), std::invalid_argument);
    }
    omp_set_num_threads(saved);
#else
    got.push_back(t->apply(counts));
#endif
    for (const math::Matrix& m : got) {
      ASSERT_TRUE(m.same_shape(got.front()));
      EXPECT_EQ(std::memcmp(m.data(), got.front().data(),
                            m.size() * sizeof(float)),
                0)
          << t->name();
    }
  }
}

TEST(FeatureTransform, MonotoneInCounts) {
  // Property: more calls never decreases a feature (add-only soundness).
  CountTransform t;
  math::Rng rng(9);
  math::Matrix counts(10, 6);
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts.data()[i] = static_cast<float>(rng.poisson(3.0));
  t.fit(counts);
  for (std::size_t r = 0; r < counts.rows(); ++r) {
    std::vector<float> base(counts.row(r).begin(), counts.row(r).end());
    auto bumped = base;
    for (auto& c : bumped) c += 2.0f;
    const auto f0 = t.apply_row(base);
    const auto f1 = t.apply_row(bumped);
    for (std::size_t c = 0; c < base.size(); ++c)
      EXPECT_GE(f1[c], f0[c]);
  }
}

}  // namespace
}  // namespace mev::features
