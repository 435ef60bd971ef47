#include "defense/feature_squeezing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "data/dataset.hpp"
#include "nn/session.hpp"
#include "nn/trainer.hpp"

namespace mev::defense {
namespace {

TEST(BinarySqueezer, Thresholds) {
  math::Matrix x{{0.2f, 0.5f, 0.9f}};
  const math::Matrix y = binary_squeeze(x);
  EXPECT_EQ(y(0, 0), 0.0f);
  EXPECT_EQ(y(0, 1), 0.0f);  // strict threshold
  EXPECT_EQ(y(0, 2), 1.0f);
}

struct Fixture {
  std::shared_ptr<nn::Network> net;
  math::Matrix legit;

  Fixture() {
    nn::MlpConfig cfg;
    cfg.dims = {8, 16, 2};
    cfg.seed = 5;
    net = std::make_shared<nn::Network>(nn::make_mlp(cfg));
    math::Rng rng(6);
    nn::LabeledData data;
    data.x = math::Matrix(200, 8);
    data.labels.resize(200);
    for (std::size_t i = 0; i < 200; ++i) {
      const int label = static_cast<int>(i % 2);
      for (std::size_t j = 0; j < 8; ++j)
        data.x(i, j) = static_cast<float>(std::clamp(
            (j < 4) == (label == 1) ? 0.6 + 0.15 * rng.normal()
                                    : 0.1 + 0.05 * rng.normal(),
            0.0, 1.0));
      data.labels[i] = label;
    }
    nn::TrainConfig tc;
    tc.epochs = 20;
    nn::train(*net, data, tc);
    legit = data.x;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(FeatureSqueezing, ConstructorValidation) {
  auto& f = fixture();
  EXPECT_THROW(FeatureSqueezing(nullptr, 0.1), std::invalid_argument);
  EXPECT_THROW(FeatureSqueezing(f.net, -0.1), std::invalid_argument);
}

TEST(FeatureSqueezing, ScoresAreNonNegativeL1) {
  auto& f = fixture();
  FeatureSqueezing fs(f.net, 0.5);
  const auto scores = fs.scores(f.legit.slice_rows(0, 20));
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 2.0);  // L1 between two 2-class distributions is <= 2
  }
}

TEST(FeatureSqueezing, CalibratedThresholdBoundsLegitFlagRate) {
  auto& f = fixture();
  const double threshold =
      FeatureSqueezing::calibrate_threshold(*f.net, f.legit, 90.0);
  FeatureSqueezing fs(f.net, threshold);
  const auto flagged = fs.is_adversarial(f.legit);
  std::size_t n = 0;
  for (bool b : flagged) n += b ? 1 : 0;
  // About 10% of the calibration data sits above its own 90th percentile.
  EXPECT_NEAR(static_cast<double>(n) / flagged.size(), 0.10, 0.06);
}

TEST(FeatureSqueezing, CalibrateThresholdEmptyThrows) {
  auto& f = fixture();
  EXPECT_THROW(FeatureSqueezing::calibrate_threshold(*f.net,
                                                     math::Matrix(0, 8)),
               std::invalid_argument);
}

TEST(FeatureSqueezing, FlaggedRowsAreClassifiedMalware) {
  auto& f = fixture();
  // Threshold 0 flags everything with any prediction difference.
  FeatureSqueezing fs(f.net, 0.0);
  const math::Matrix probe = f.legit.slice_rows(0, 10);
  const auto flagged = fs.is_adversarial(probe);
  const auto classes = fs.classify(probe);
  for (std::size_t i = 0; i < 10; ++i) {
    if (flagged[i]) {
      EXPECT_EQ(classes[i], data::kMalwareLabel);
    }
  }
}

TEST(FeatureSqueezing, HugeThresholdNeverFlags) {
  auto& f = fixture();
  FeatureSqueezing fs(f.net, 10.0);
  const math::Matrix probe = f.legit.slice_rows(0, 10);
  const auto classes = fs.classify(probe);
  nn::InferenceSession session(*f.net);
  const auto want = session.predict(probe);
  EXPECT_EQ(classes, std::vector<int>(want.begin(), want.end()));
}

}  // namespace
}  // namespace mev::defense
