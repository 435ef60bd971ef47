#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "math/rng.hpp"

namespace mev::nn {
namespace {

struct Quadratic {
  // f(w) = 0.5 * ||w - target||^2; grad = w - target.
  math::Matrix w{math::Matrix(1, 3, 0.0f)};
  math::Matrix grad{math::Matrix(1, 3, 0.0f)};
  math::Matrix target{{2.0f, -1.0f, 0.5f}};

  std::vector<ParamRef> params() { return {{&w, &grad}}; }

  void compute_grad() {
    for (std::size_t i = 0; i < 3; ++i)
      grad.data()[i] = w.data()[i] - target.data()[i];
  }
  double loss() const {
    double s = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      const double d = w.data()[i] - target.data()[i];
      s += 0.5 * d * d;
    }
    return s;
  }
};

TEST(Adam, ConvergesOnQuadratic) {
  Quadratic q;
  Adam adam(0.1f);
  auto params = q.params();
  for (int i = 0; i < 500; ++i) {
    q.compute_grad();
    adam.step(params);
  }
  EXPECT_LT(q.loss(), 1e-4);
}

TEST(Adam, FirstStepIsApproximatelyLearningRate) {
  // With bias correction the first Adam step is ~lr * sign(grad).
  Adam adam(0.01f);
  math::Matrix w(1, 1, 0.0f), g(1, 1, 123.0f);
  std::vector<ParamRef> params{{&w, &g}};
  adam.step(params);
  EXPECT_NEAR(w(0, 0), -0.01f, 1e-4);
}

/// Adam as one scalar loop: the update Adam::step must reproduce bit for
/// bit, however wide the vector lanes it runs in.
struct ScalarAdam {
  float learning_rate;
  std::vector<float> m, v;
  long t = 0;

  void step(std::vector<float>& value, const std::vector<float>& grad) {
    m.resize(value.size(), 0.0f);
    v.resize(value.size(), 0.0f);
    ++t;
    const double bc1 = 1.0 - std::pow(kAdamBeta1, t);
    const double bc2 = 1.0 - std::pow(kAdamBeta2, t);
    for (std::size_t j = 0; j < value.size(); ++j) {
      const float g = grad[j];
      m[j] = kAdamBeta1 * m[j] + (1.0f - kAdamBeta1) * g;
      v[j] = kAdamBeta2 * v[j] + (1.0f - kAdamBeta2) * g * g;
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      value[j] -= static_cast<float>(learning_rate * mhat /
                                     (std::sqrt(vhat) + kAdamEpsilon));
    }
  }
};

TEST(Adam, StepMatchesScalarReferenceBitExact) {
  // 3 x 13 = 39 elements, then 1 x 5: neither fills whole vectors, so the
  // vector tail runs too. Gradients span signs, zeros and magnitudes.
  constexpr float kLearningRate = 0.003f;
  Adam adam(kLearningRate);
  math::Rng rng(21);
  math::Matrix w0(3, 13), g0(3, 13), w1(1, 5), g1(1, 5);
  for (math::Matrix* w : {&w0, &w1})
    for (std::size_t i = 0; i < w->size(); ++i)
      w->data()[i] = static_cast<float>(rng.normal());
  const std::vector<ParamRef> params{{&w0, &g0}, {&w1, &g1}};
  // One scalar reference per tensor (Adam keeps m and v per tensor).
  ScalarAdam want0{kLearningRate, {}, {}, 0},
      want1{kLearningRate, {}, {}, 0};
  std::vector<float> ref0(w0.data(), w0.data() + w0.size());
  std::vector<float> ref1(w1.data(), w1.data() + w1.size());
  for (int step = 0; step < 25; ++step) {
    for (math::Matrix* g : {&g0, &g1}) {
      for (std::size_t i = 0; i < g->size(); ++i) {
        const double scale = std::ldexp(1.0, static_cast<int>(i % 9) - 6);
        g->data()[i] = i % 7 == 3 ? 0.0f
                                  : static_cast<float>(rng.normal(0.0, scale));
      }
    }
    adam.step(params);
    want0.step(ref0, std::vector<float>(g0.data(), g0.data() + g0.size()));
    want1.step(ref1, std::vector<float>(g1.data(), g1.data() + g1.size()));
    ASSERT_EQ(
        std::memcmp(w0.data(), ref0.data(), ref0.size() * sizeof(float)), 0)
        << "tensor 0, step " << step;
    ASSERT_EQ(
        std::memcmp(w1.data(), ref1.data(), ref1.size() * sizeof(float)), 0)
        << "tensor 1, step " << step;
  }
}

TEST(Optimizer, InvalidConfigsThrow) {
  EXPECT_THROW(Adam{-1.0f}, std::invalid_argument);
  EXPECT_THROW(Adam{0.0f}, std::invalid_argument);
}

TEST(Optimizer, NullParamThrows) {
  Adam adam(0.001f);
  std::vector<ParamRef> params{{nullptr, nullptr}};
  EXPECT_THROW(adam.step(params), std::invalid_argument);
}

TEST(Optimizer, ShapeMismatchThrows) {
  Adam adam(0.001f);
  math::Matrix w(1, 2), g(1, 3);
  std::vector<ParamRef> params{{&w, &g}};
  EXPECT_THROW(adam.step(params), std::invalid_argument);
}

TEST(Optimizer, ParameterSetChangeThrows) {
  Adam adam(0.001f);
  math::Matrix w(1, 2), g(1, 2);
  std::vector<ParamRef> params{{&w, &g}};
  adam.step(params);
  math::Matrix w2(1, 2), g2(1, 2);
  params.push_back({&w2, &g2});
  EXPECT_THROW(adam.step(params), std::invalid_argument);
}

}  // namespace
}  // namespace mev::nn
