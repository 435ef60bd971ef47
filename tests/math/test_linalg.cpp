#include "math/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace mev::math {
namespace {

const std::vector<float> kA{1, 2, 3};
const std::vector<float> kB{4, 6, 3};

TEST(Linalg, L2Distance) {
  EXPECT_DOUBLE_EQ(l2_distance(kA, kB), 5.0);
  EXPECT_DOUBLE_EQ(l2_distance(kA, kA), 0.0);
}

TEST(Linalg, L1Distance) {
  EXPECT_DOUBLE_EQ(l1_distance(kA, kB), 3 + 4 + 0);
}

TEST(Linalg, SoftmaxSumsToOne) {
  std::vector<float> logits{1.0f, 2.0f, 3.0f};
  softmax_inplace(logits);
  double sum = 0;
  for (float p : logits) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(logits[2], logits[1]);
  EXPECT_GT(logits[1], logits[0]);
}

TEST(Linalg, SoftmaxNumericallyStableForLargeLogits) {
  std::vector<float> logits{1000.0f, 1001.0f};
  softmax_inplace(logits);
  EXPECT_FALSE(std::isnan(logits[0]));
  EXPECT_NEAR(logits[0] + logits[1], 1.0, 1e-6);
}

TEST(Linalg, SoftmaxTemperatureFlattens) {
  std::vector<float> sharp{0.0f, 4.0f};
  std::vector<float> soft = sharp;
  softmax_inplace(sharp, 1.0f);
  softmax_inplace(soft, 50.0f);
  EXPECT_GT(sharp[1] - sharp[0], soft[1] - soft[0]);
  EXPECT_NEAR(soft[0], 0.5, 0.05);
}

TEST(Linalg, SoftmaxInvalidTemperatureThrows) {
  std::vector<float> logits{1.0f, 2.0f};
  EXPECT_THROW(softmax_inplace(logits, 0.0f), std::invalid_argument);
  EXPECT_THROW(softmax_inplace(logits, -1.0f), std::invalid_argument);
}

TEST(Linalg, SoftmaxEmptyIsNoop) {
  std::vector<float> empty;
  EXPECT_NO_THROW(softmax_inplace(empty));
}

TEST(Linalg, Argmax) {
  const std::vector<float> v{3, 9, 1, 9};
  EXPECT_EQ(argmax(v), 1u);  // first maximum
  EXPECT_THROW(argmax(std::vector<float>{}), std::invalid_argument);
}

TEST(Linalg, TriangleInequalityHolds) {
  const std::vector<float> a{1, 0, 2}, b{0, 1, 0}, c{2, 2, 2};
  EXPECT_LE(l2_distance(a, c), l2_distance(a, b) + l2_distance(b, c) + 1e-9);
}

}  // namespace
}  // namespace mev::math
