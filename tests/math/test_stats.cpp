#include "math/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace mev::math {
namespace {

TEST(Stats, PercentileEndpointsAndMedian) {
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 20.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
}

TEST(Stats, PercentileErrors) {
  EXPECT_THROW(percentile(std::vector<double>{}, 50), std::invalid_argument);
  const std::vector<double> v{1};
  EXPECT_THROW(percentile(v, -1), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101), std::invalid_argument);
}

TEST(Stats, CovarianceMatrixDiagonalIsVariance) {
  Matrix x{{1, 10}, {2, 20}, {3, 30}};
  const Matrix cov = covariance_matrix(x);
  EXPECT_NEAR(cov(0, 0), 2.0 / 3.0, 1e-5);
  EXPECT_NEAR(cov(1, 1), 200.0 / 3.0, 1e-4);
  // Perfectly correlated features: cov = sqrt(var1 * var2).
  EXPECT_NEAR(cov(0, 1), std::sqrt(cov(0, 0) * cov(1, 1)), 1e-4);
  EXPECT_NEAR(cov(0, 1), cov(1, 0), 1e-6);
}

TEST(Stats, CovarianceEmptyThrows) {
  EXPECT_THROW(covariance_matrix(Matrix(0, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace mev::math
