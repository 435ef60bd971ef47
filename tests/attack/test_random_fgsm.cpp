#include <gtest/gtest.h>

#include <stdexcept>

#include "attack/fgsm.hpp"
#include "attack/random_attack.hpp"
#include "nn/session.hpp"
#include "nn/trainer.hpp"

namespace mev::attack {
namespace {

nn::Network tiny_net() {
  nn::MlpConfig cfg;
  cfg.dims = {6, 12, 2};
  cfg.seed = 21;
  return nn::make_mlp(cfg);
}

math::Matrix inputs() {
  math::Rng rng(22);
  math::Matrix x(8, 6);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.uniform(0.0, 0.8));
  return x;
}

TEST(RandomAddition, ConfigValidation) {
  RandomAdditionConfig bad;
  bad.theta = -1.0f;
  EXPECT_THROW(RandomAddition{bad}, std::invalid_argument);
  RandomAdditionConfig bad2;
  bad2.gamma = 2.0f;
  EXPECT_THROW(RandomAddition{bad2}, std::invalid_argument);
}

TEST(RandomAddition, AddOnlyAndBudget) {
  nn::Network net = tiny_net();
  const math::Matrix x = inputs();
  RandomAdditionConfig cfg;
  cfg.theta = 0.2f;
  cfg.gamma = 0.5f;  // 3 features of 6
  const AttackResult r = RandomAddition(cfg).craft(net, x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_LE(r.features_changed[i], 3u);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_GE(r.adversarial(i, j), x(i, j) - 1e-6);
      EXPECT_LE(r.adversarial(i, j), 1.0f + 1e-6);
    }
  }
}

TEST(RandomAddition, DeterministicInSeed) {
  nn::Network net = tiny_net();
  const math::Matrix x = inputs();
  RandomAdditionConfig cfg;
  cfg.seed = 5;
  cfg.theta = 0.3f;
  cfg.gamma = 0.5f;
  const auto a = RandomAddition(cfg).craft(net, x);
  const auto b = RandomAddition(cfg).craft(net, x);
  EXPECT_EQ(a.adversarial, b.adversarial);
  cfg.seed = 6;
  const auto c = RandomAddition(cfg).craft(net, x);
  EXPECT_NE(a.adversarial, c.adversarial);
}

TEST(RandomAddition, DifferentRowsGetDifferentFeatures) {
  nn::Network net = tiny_net();
  math::Matrix x(4, 6);  // all zeros
  RandomAdditionConfig cfg;
  cfg.theta = 1.0f;
  cfg.gamma = 0.34f;  // 2 features
  const auto r = RandomAddition(cfg).craft(net, x);
  bool any_difference = false;
  for (std::size_t i = 1; i < 4 && !any_difference; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      if (r.adversarial(i, j) != r.adversarial(0, j)) any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(RandomAddition, EmptyBatch) {
  nn::Network net = tiny_net();
  const auto r = RandomAddition(RandomAdditionConfig{})
                     .craft(net, math::Matrix(0, 6));
  EXPECT_EQ(r.size(), 0u);
}

TEST(FgsmAddOnly, ConfigValidation) {
  FgsmConfig bad;
  bad.theta = -0.5f;
  EXPECT_THROW(FgsmAddOnly{bad}, std::invalid_argument);
}

TEST(FgsmAddOnly, OnlyMovesTowardTargetAndUp) {
  nn::Network net = tiny_net();
  const math::Matrix x = inputs();
  FgsmConfig cfg;
  cfg.theta = 0.1f;
  const AttackResult r = FgsmAddOnly(cfg).craft(net, x);
  nn::InferenceSession session(net);
  const math::Matrix grad = session.input_gradient(x, cfg.target_class);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      const float delta = r.adversarial(i, j) - x(i, j);
      EXPECT_GE(delta, 0.0f);
      if (grad(i, j) <= 0.0f) {
        EXPECT_EQ(delta, 0.0f);
      }
    }
  }
}

TEST(FgsmAddOnly, DeltaBoundedByTheta) {
  nn::Network net = tiny_net();
  const math::Matrix x = inputs();
  FgsmConfig cfg;
  cfg.theta = 0.07f;
  const AttackResult r = FgsmAddOnly(cfg).craft(net, x);
  for (std::size_t i = 0; i < r.adversarial.size(); ++i)
    EXPECT_LE(r.adversarial.data()[i] - x.data()[i], cfg.theta + 1e-6);
}

TEST(FgsmAddOnly, TouchesMoreFeaturesThanJsmaWould) {
  nn::Network net = tiny_net();
  const math::Matrix x = inputs();
  FgsmConfig cfg;
  cfg.theta = 0.1f;
  const AttackResult r = FgsmAddOnly(cfg).craft(net, x);
  // Dense attack: typically perturbs about half the features (positive
  // gradient direction), far more than a gamma-limited JSMA.
  EXPECT_GT(r.mean_features_changed(), 1.0);
}

TEST(FgsmAddOnly, EmptyBatch) {
  nn::Network net = tiny_net();
  const auto r = FgsmAddOnly(FgsmConfig{}).craft(net, math::Matrix(0, 6));
  EXPECT_EQ(r.size(), 0u);
}

TEST(AttackResult, Aggregates) {
  AttackResult r;
  r.evaded = {true, false, true, false};
  r.features_changed = {2, 4, 6, 0};
  r.l2_perturbation = {1.0, 2.0, 3.0, 0.0};
  EXPECT_DOUBLE_EQ(r.success_rate(), 0.5);
  EXPECT_DOUBLE_EQ(r.mean_features_changed(), 3.0);
  EXPECT_DOUBLE_EQ(r.mean_l2(), 1.5);
  EXPECT_DOUBLE_EQ(AttackResult{}.success_rate(), 0.0);
}

}  // namespace
}  // namespace mev::attack
