#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace mev::nn {
namespace {

TEST(Loss, SoftmaxRowsSumToOne) {
  const math::Matrix logits{{1, 2, 3}, {-1, 0, 1}};
  const math::Matrix p = softmax_rows(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    double s = 0;
    for (std::size_t c = 0; c < 3; ++c) s += p(r, c);
    EXPECT_NEAR(s, 1.0, 1e-6);
  }
}

TEST(Loss, CrossEntropyUniformLogits) {
  const math::Matrix logits{{0, 0}};
  const auto result = softmax_cross_entropy(logits, {0});
  EXPECT_NEAR(result.loss, std::log(2.0), 1e-6);
  // grad = (p - onehot)/n: p = 0.5 each.
  EXPECT_NEAR(result.grad_logits(0, 0), -0.5f, 1e-5);
  EXPECT_NEAR(result.grad_logits(0, 1), 0.5f, 1e-5);
}

TEST(Loss, CrossEntropyConfidentCorrectIsSmall) {
  const math::Matrix logits{{10, -10}};
  const auto result = softmax_cross_entropy(logits, {0});
  EXPECT_LT(result.loss, 1e-4);
}

TEST(Loss, CrossEntropyLabelErrors) {
  const math::Matrix logits{{0, 0}};
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {2}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {-1}), std::invalid_argument);
}

TEST(Loss, CrossEntropyGradMatchesFiniteDifference) {
  math::Matrix logits{{0.3f, -0.7f, 1.1f}, {0.2f, 0.9f, -0.4f}};
  const std::vector<int> labels{2, 0};
  const auto result = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      math::Matrix lp = logits, lm = logits;
      lp(i, c) += eps;
      lm(i, c) -= eps;
      const double fd = (softmax_cross_entropy(lp, labels).loss -
                         softmax_cross_entropy(lm, labels).loss) /
                        (2 * eps);
      EXPECT_NEAR(result.grad_logits(i, c), fd, 1e-3);
    }
  }
}

TEST(Loss, TemperatureSoftensGradient) {
  const math::Matrix logits{{2.0f, -2.0f}};
  const auto sharp = softmax_cross_entropy(logits, {1}, 1.0f);
  const auto soft = softmax_cross_entropy(logits, {1}, 50.0f);
  EXPECT_GT(std::abs(sharp.grad_logits(0, 0)),
            std::abs(soft.grad_logits(0, 0)));
}

TEST(Loss, TemperatureGradMatchesFiniteDifference) {
  math::Matrix logits{{0.5f, -0.2f}};
  const std::vector<int> labels{0};
  const float T = 10.0f;
  const auto result = softmax_cross_entropy(logits, labels, T);
  const float eps = 1e-3f;
  for (std::size_t c = 0; c < 2; ++c) {
    math::Matrix lp = logits, lm = logits;
    lp(0, c) += eps;
    lm(0, c) -= eps;
    const double fd = (softmax_cross_entropy(lp, labels, T).loss -
                       softmax_cross_entropy(lm, labels, T).loss) /
                      (2 * eps);
    EXPECT_NEAR(result.grad_logits(0, c), fd, 1e-4);
  }
}

TEST(Loss, SoftLabelMatchesHardLabelWhenOneHot) {
  const math::Matrix logits{{0.3f, 0.9f}};
  const math::Matrix targets{{0.0f, 1.0f}};
  const auto soft = soft_label_cross_entropy(logits, targets);
  const auto hard = softmax_cross_entropy(logits, {1});
  EXPECT_NEAR(soft.loss, hard.loss, 1e-6);
  for (std::size_t c = 0; c < 2; ++c)
    EXPECT_NEAR(soft.grad_logits(0, c), hard.grad_logits(0, c), 1e-6);
}

TEST(Loss, SoftLabelGradMatchesFiniteDifference) {
  math::Matrix logits{{0.1f, -0.3f, 0.8f}};
  const math::Matrix targets{{0.2f, 0.5f, 0.3f}};
  const auto result = soft_label_cross_entropy(logits, targets);
  const float eps = 1e-3f;
  for (std::size_t c = 0; c < 3; ++c) {
    math::Matrix lp = logits, lm = logits;
    lp(0, c) += eps;
    lm(0, c) -= eps;
    const double fd = (soft_label_cross_entropy(lp, targets).loss -
                       soft_label_cross_entropy(lm, targets).loss) /
                      (2 * eps);
    EXPECT_NEAR(result.grad_logits(0, c), fd, 1e-3);
  }
}

TEST(Loss, SoftLabelShapeMismatchThrows) {
  EXPECT_THROW(
      soft_label_cross_entropy(math::Matrix(1, 2), math::Matrix(1, 3)),
      std::invalid_argument);
}

}  // namespace
}  // namespace mev::nn
