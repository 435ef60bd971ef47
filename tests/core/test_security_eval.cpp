#include "core/security_eval.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "data/dataset.hpp"
#include "nn/session.hpp"
#include "nn/trainer.hpp"

namespace mev::core {
namespace {

TEST(SweepConfig, Fig3aGridMatchesPaper) {
  const SweepConfig c = SweepConfig::fig3a();
  EXPECT_EQ(c.parameter, SweepParameter::kGamma);
  ASSERT_EQ(c.grid.size(), 7u);  // 0 : 0.005 : 0.030
  EXPECT_DOUBLE_EQ(c.grid.front(), 0.0);
  EXPECT_NEAR(c.grid.back(), 0.030, 1e-9);
  EXPECT_DOUBLE_EQ(c.fixed_theta, 0.1);
}

TEST(SweepConfig, Fig3bGridMatchesPaper) {
  const SweepConfig c = SweepConfig::fig3b();
  EXPECT_EQ(c.parameter, SweepParameter::kTheta);
  ASSERT_EQ(c.grid.size(), 13u);  // 0 : 0.0125 : 0.15
  EXPECT_NEAR(c.grid.back(), 0.15, 1e-9);
  EXPECT_DOUBLE_EQ(c.fixed_gamma, 0.025);
}

TEST(SweepConfig, Fig4bUsesTwoFeatureBudget) {
  EXPECT_DOUBLE_EQ(SweepConfig::fig4b().fixed_gamma, 0.005);
}

struct Fixture {
  nn::Network net;
  math::Matrix malware;
  math::Matrix clean;

  Fixture() {
    nn::MlpConfig cfg;
    cfg.dims = {12, 20, 2};
    cfg.seed = 5;
    net = nn::make_mlp(cfg);
    math::Rng rng(6);
    nn::LabeledData train;
    train.x = math::Matrix(300, 12);
    train.labels.resize(300);
    for (std::size_t i = 0; i < 300; ++i) {
      const int label = static_cast<int>(i % 2);
      for (std::size_t j = 0; j < 12; ++j) {
        const bool hot = label == 1 ? j < 6 : j >= 6;
        train.x(i, j) = static_cast<float>(std::clamp(
            hot ? 0.5 + 0.2 * rng.normal() : 0.1 + 0.05 * rng.normal(), 0.0,
            1.0));
      }
      train.labels[i] = label;
    }
    nn::TrainConfig tc;
    tc.epochs = 30;
    nn::train(net, train, tc);
    malware = math::Matrix(0, 12);
    clean = math::Matrix(0, 12);
    for (std::size_t i = 0; i < 300 && (malware.rows() < 30 || clean.rows() < 30); ++i) {
      if (train.labels[i] == 1 && malware.rows() < 30)
        malware.append_row(train.x.row(i));
      if (train.labels[i] == 0 && clean.rows() < 30)
        clean.append_row(train.x.row(i));
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(SecuritySweep, EmptyGridThrows) {
  auto& f = fixture();
  SweepConfig sweep;
  EXPECT_THROW(
      run_security_sweep(f.net, f.net, f.malware, sweep),
      std::invalid_argument);
}

TEST(SecuritySweep, NullMapThrows) {
  auto& f = fixture();
  SweepConfig sweep;
  sweep.grid = {0.1};
  FeatureSpaceMap map;  // both functions null
  EXPECT_THROW(run_security_sweep(f.net, f.net, f.malware, sweep, map),
               std::invalid_argument);
}

TEST(SecuritySweep, WhiteBoxCurvesCoincide) {
  auto& f = fixture();
  SweepConfig sweep;
  sweep.parameter = SweepParameter::kGamma;
  sweep.grid = {0.0, 0.1, 0.3};
  sweep.fixed_theta = 0.5;
  const SweepResult r = run_security_sweep(f.net, f.net, f.malware, sweep);
  ASSERT_EQ(r.target_curve.points.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(r.target_curve.points[i].detection_rate,
                r.craft_curve.points[i].detection_rate, 1e-9);
}

TEST(SecuritySweep, DetectionDecreasesWithStrength) {
  auto& f = fixture();
  SweepConfig sweep;
  sweep.parameter = SweepParameter::kGamma;
  sweep.grid = {0.0, 0.5};
  sweep.fixed_theta = 1.0;
  const SweepResult r = run_security_sweep(f.net, f.net, f.malware, sweep);
  EXPECT_LT(r.target_curve.points.back().detection_rate,
            r.target_curve.points.front().detection_rate);
}

TEST(SecuritySweep, ZeroStrengthMatchesBaseline) {
  auto& f = fixture();
  SweepConfig sweep;
  sweep.parameter = SweepParameter::kTheta;
  sweep.grid = {0.0};
  const SweepResult r = run_security_sweep(f.net, f.net, f.malware, sweep);
  nn::InferenceSession session(f.net);
  const auto preds = session.predict(f.malware);
  std::size_t detected = 0;
  for (int p : preds) detected += p == data::kMalwareLabel ? 1 : 0;
  EXPECT_NEAR(r.target_curve.points[0].detection_rate,
              static_cast<double>(detected) / preds.size(), 1e-9);
  EXPECT_DOUBLE_EQ(r.target_curve.points[0].mean_l2, 0.0);
}

TEST(SecuritySweep, DistancesFilledWhenCleanProvided) {
  auto& f = fixture();
  SweepConfig sweep;
  sweep.parameter = SweepParameter::kGamma;
  sweep.grid = {0.0, 0.2};
  sweep.fixed_theta = 0.5;
  const SweepResult r =
      run_security_sweep(f.net, f.net, f.malware, sweep,
                         FeatureSpaceMap::identity(), &f.clean);
  ASSERT_EQ(r.distances.size(), 2u);
  EXPECT_GT(r.distances[1].distances.malware_to_adversarial,
            r.distances[0].distances.malware_to_adversarial);
}

TEST(SecuritySweep, CurveMetadataNamed) {
  auto& f = fixture();
  SweepConfig sweep;
  sweep.parameter = SweepParameter::kTheta;
  sweep.grid = {0.1};
  const SweepResult r = run_security_sweep(f.net, f.net, f.malware, sweep);
  EXPECT_EQ(r.target_curve.parameter, "theta");
  EXPECT_EQ(r.target_curve.name, "target model");
  EXPECT_EQ(r.craft_curve.name, "craft model");
}

TEST(SecuritySweep, FailedPointsAreIsolated) {
  auto& f = fixture();
  SweepConfig sweep;
  sweep.parameter = SweepParameter::kGamma;
  sweep.grid = {-1.0, 0.1};  // negative gamma is rejected by Jsma
  sweep.fixed_theta = 0.5;
  const SweepResult r = run_security_sweep(f.net, f.net, f.malware, sweep);
  ASSERT_EQ(r.failed_points.size(), 1u);
  EXPECT_EQ(r.failed_points[0].index, 0u);
  EXPECT_DOUBLE_EQ(r.failed_points[0].attack_strength, -1.0);
  EXPECT_NE(r.failed_points[0].message.find("gamma"), std::string::npos);
  // The healthy grid point was still evaluated.
  ASSERT_EQ(r.target_curve.points.size(), 2u);
  EXPECT_DOUBLE_EQ(r.target_curve.points[1].attack_strength, 0.1);
  EXPECT_GT(r.target_curve.points[1].detection_rate, 0.0);
}

TEST(SecuritySweep, FullyFailedSweepIsFatal) {
  auto& f = fixture();
  SweepConfig sweep;
  sweep.parameter = SweepParameter::kGamma;
  sweep.grid = {-1.0, -2.0};  // every point invalid
  EXPECT_THROW(run_security_sweep(f.net, f.net, f.malware, sweep),
               std::invalid_argument);
}

TEST(FeatureSpaceMapIdentity, PassesThrough) {
  const FeatureSpaceMap map = FeatureSpaceMap::identity();
  const math::Matrix m{{1, 2}};
  EXPECT_EQ(map.to_craft_space(m), m);
  EXPECT_EQ(map.to_target_space(m), m);
}

}  // namespace
}  // namespace mev::core
