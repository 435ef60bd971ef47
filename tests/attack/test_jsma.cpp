#include "attack/jsma.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "data/dataset.hpp"
#include "nn/session.hpp"
#include "nn/trainer.hpp"

namespace mev::attack {
namespace {

/// A small detector trained on synthetic 10-D data where high values of
/// features 0..4 indicate malware and high 5..9 indicate clean.
struct Fixture {
  nn::Network net;
  math::Matrix malware;  // detected malware rows

  Fixture() {
    nn::MlpConfig cfg;
    cfg.dims = {10, 24, 2};
    cfg.seed = 11;
    net = nn::make_mlp(cfg);

    math::Rng rng(12);
    nn::LabeledData train;
    train.x = math::Matrix(400, 10);
    train.labels.resize(400);
    for (std::size_t i = 0; i < 400; ++i) {
      const int label = static_cast<int>(i % 2);
      for (std::size_t j = 0; j < 10; ++j) {
        const bool hot = label == data::kMalwareLabel ? j < 5 : j >= 5;
        train.x(i, j) = static_cast<float>(
            std::clamp(hot ? 0.55 + 0.2 * rng.normal()
                           : 0.10 + 0.08 * rng.normal(),
                       0.0, 1.0));
      }
      train.labels[i] = label;
    }
    nn::TrainConfig tc;
    tc.epochs = 40;
    nn::train(net, train, tc);

    // Collect detected malware rows.
    malware = math::Matrix(0, 10);
    nn::InferenceSession session(net);
    for (std::size_t i = 0; i < 400; ++i) {
      if (train.labels[i] != data::kMalwareLabel) continue;
      math::Matrix row(1, 10);
      row.set_row(0, train.x.row(i));
      if (session.predict(row)[0] == data::kMalwareLabel) {
        malware.append_row(train.x.row(i));
        if (malware.rows() >= 40) break;
      }
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Jsma, ConfigValidation) {
  JsmaConfig bad;
  bad.theta = -0.1f;
  EXPECT_THROW(Jsma{bad}, std::invalid_argument);
  JsmaConfig bad2;
  bad2.gamma = 1.5f;
  EXPECT_THROW(Jsma{bad2}, std::invalid_argument);
}

TEST(Jsma, FeatureBudgetMatchesPaper) {
  JsmaConfig cfg;
  cfg.gamma = 0.005f;
  EXPECT_EQ(Jsma(cfg).feature_budget(491), 2u);  // "adding 2 features"
  cfg.gamma = 0.025f;
  EXPECT_EQ(Jsma(cfg).feature_budget(491), 12u);  // "adding 12 features"
  cfg.gamma = 0.0f;
  EXPECT_EQ(Jsma(cfg).feature_budget(491), 0u);
}

TEST(Jsma, SaliencyMapZeroesInadmissibleFeatures) {
  // Two classes, two features: feature 0 helps the target, feature 1 hurts.
  math::Matrix g0{{0.5f, -0.5f}};
  math::Matrix g1{{-0.5f, 0.5f}};
  const std::vector<math::Matrix> grads{g0, g1};
  const math::Matrix s = Jsma::saliency_map(grads, 0);
  EXPECT_GT(s(0, 0), 0.0f);
  EXPECT_EQ(s(0, 1), 0.0f);
}

TEST(Jsma, SaliencyMapTargetOutOfRangeThrows) {
  math::Matrix g(1, 2);
  const std::vector<math::Matrix> grads{g, g};
  EXPECT_THROW(Jsma::saliency_map(grads, 5), std::invalid_argument);
  EXPECT_THROW(Jsma::saliency_map({}, 0), std::invalid_argument);
}

TEST(Jsma, AddOnlyInvariant) {
  // Property: adversarial features never decrease and never exceed 1.
  auto& f = fixture();
  JsmaConfig cfg;
  cfg.theta = 0.3f;
  cfg.gamma = 0.3f;
  const AttackResult r = Jsma(cfg).craft(f.net, f.malware);
  for (std::size_t i = 0; i < f.malware.rows(); ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_GE(r.adversarial(i, j), f.malware(i, j) - 1e-6);
      EXPECT_LE(r.adversarial(i, j), 1.0f + 1e-6);
    }
  }
}

TEST(Jsma, RespectsFeatureBudget) {
  auto& f = fixture();
  JsmaConfig cfg;
  cfg.theta = 0.2f;
  cfg.gamma = 0.2f;  // 2 features in 10
  cfg.early_stop = false;
  const AttackResult r = Jsma(cfg).craft(f.net, f.malware);
  for (std::size_t fc : r.features_changed) EXPECT_LE(fc, 2u);
}

TEST(Jsma, StrongAttackEvades) {
  auto& f = fixture();
  JsmaConfig cfg;
  cfg.theta = 1.0f;
  cfg.gamma = 0.5f;
  const AttackResult r = Jsma(cfg).craft(f.net, f.malware);
  EXPECT_GT(r.success_rate(), 0.8);
}

TEST(Jsma, StrongerAttackEvadesAtLeastAsMuch) {
  auto& f = fixture();
  JsmaConfig weak;
  weak.theta = 0.1f;
  weak.gamma = 0.1f;
  JsmaConfig strong = weak;
  strong.theta = 1.0f;
  strong.gamma = 0.5f;
  EXPECT_GE(Jsma(strong).craft(f.net, f.malware).success_rate(),
            Jsma(weak).craft(f.net, f.malware).success_rate());
}

TEST(Jsma, ZeroStrengthIsNoop) {
  auto& f = fixture();
  JsmaConfig cfg;
  cfg.theta = 0.0f;
  const AttackResult r = Jsma(cfg).craft(f.net, f.malware);
  EXPECT_EQ(r.adversarial, f.malware);
  EXPECT_EQ(r.success_rate(), 0.0);  // all rows were detected malware
}

TEST(Jsma, ZeroGammaIsNoop) {
  auto& f = fixture();
  JsmaConfig cfg;
  cfg.gamma = 0.0f;
  const AttackResult r = Jsma(cfg).craft(f.net, f.malware);
  EXPECT_EQ(r.adversarial, f.malware);
}

TEST(Jsma, EmptyBatch) {
  auto& f = fixture();
  const AttackResult r = Jsma(JsmaConfig{}).craft(f.net, math::Matrix(0, 10));
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.success_rate(), 0.0);
}

TEST(Jsma, EarlyStopUsesFewerFeatures) {
  auto& f = fixture();
  JsmaConfig eager;
  eager.theta = 1.0f;
  eager.gamma = 0.5f;
  eager.early_stop = true;
  JsmaConfig full = eager;
  full.early_stop = false;
  const auto r_eager = Jsma(eager).craft(f.net, f.malware);
  const auto r_full = Jsma(full).craft(f.net, f.malware);
  EXPECT_LE(r_eager.mean_features_changed(),
            r_full.mean_features_changed() + 1e-9);
}

TEST(Jsma, AllowRepeatConcentratesPerturbation) {
  auto& f = fixture();
  JsmaConfig repeat;
  repeat.theta = 0.05f;
  repeat.gamma = 0.5f;
  repeat.allow_repeat = true;
  repeat.early_stop = false;
  const auto r = Jsma(repeat).craft(f.net, f.malware);
  // With repetition allowed, distinct features changed can be fewer than
  // the budget even when every iteration fires.
  EXPECT_LE(r.mean_features_changed(), 5.0 + 1e-9);
}

TEST(Jsma, L2MatchesPerturbation) {
  auto& f = fixture();
  JsmaConfig cfg;
  cfg.theta = 1.0f;
  cfg.gamma = 0.1f;  // 1 feature
  cfg.early_stop = false;
  const auto r = Jsma(cfg).craft(f.net, f.malware);
  for (std::size_t i = 0; i < r.size(); ++i) {
    double expect = 0;
    for (std::size_t j = 0; j < 10; ++j) {
      const double d = r.adversarial(i, j) - f.malware(i, j);
      expect += d * d;
    }
    EXPECT_NEAR(r.l2_perturbation[i], std::sqrt(expect), 1e-5);
  }
}

class JsmaGrid
    : public ::testing::TestWithParam<std::pair<float, float>> {};

TEST_P(JsmaGrid, InvariantsHoldAcrossGrid) {
  const auto [theta, gamma] = GetParam();
  auto& f = fixture();
  JsmaConfig cfg;
  cfg.theta = theta;
  cfg.gamma = gamma;
  cfg.early_stop = false;
  const AttackResult r = Jsma(cfg).craft(f.net, f.malware);
  const std::size_t budget = Jsma(cfg).feature_budget(10);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_LE(r.features_changed[i], budget);
    EXPECT_GE(r.l2_perturbation[i], 0.0);
    for (std::size_t j = 0; j < 10; ++j)
      EXPECT_GE(r.adversarial(i, j), f.malware(i, j) - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThetaGammaGrid, JsmaGrid,
    ::testing::Values(std::pair{0.05f, 0.1f}, std::pair{0.1f, 0.2f},
                      std::pair{0.5f, 0.3f}, std::pair{1.0f, 0.1f},
                      std::pair{0.0125f, 0.5f}, std::pair{1.0f, 1.0f}));

}  // namespace
}  // namespace mev::attack
