#include <gtest/gtest.h>

#include <stdexcept>

#include "attack/random_attack.hpp"
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
