#include "defense/dim_reduction.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "data/dataset.hpp"

namespace mev::defense {
namespace {

nn::LabeledData correlated_blobs(std::size_t n, std::size_t d,
                                 std::uint64_t seed) {
  math::Rng rng(seed);
  nn::LabeledData data;
  data.x = math::Matrix(n, d);
  data.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    const double shift = label == 1 ? 0.5 : -0.5;
    const double t = rng.normal();
    for (std::size_t j = 0; j < d; ++j)
      data.x(i, j) = static_cast<float>(shift + 0.6 * t + 0.2 * rng.normal());
    data.labels[i] = label;
  }
  return data;
}

TEST(DimReduction, TrainsAndClassifies) {
  const auto data = correlated_blobs(300, 12, 7);
  DimReductionConfig cfg;
  cfg.k = 3;
  cfg.training.epochs = 50;
  cfg.training.batch_size = 32;
  cfg.training.learning_rate = 0.01f;
  auto clf = train_dim_reduction_defense(data, cfg);
  ASSERT_NE(clf, nullptr);
  EXPECT_EQ(clf->pca().k(), 3u);
  const auto preds = clf->classify(data.x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    correct += preds[i] == data.labels[i] ? 1 : 0;
  // The toy task's class shift is colinear with its shared noise
  // direction, capping attainable accuracy; we check learning, not Bayes.
  EXPECT_GT(static_cast<double>(correct) / preds.size(), 0.8);
}

TEST(DimReduction, ConfidencesMatchClasses) {
  const auto data = correlated_blobs(200, 10, 8);
  DimReductionConfig cfg;
  cfg.k = 2;
  cfg.training.epochs = 20;
  auto clf = train_dim_reduction_defense(data, cfg);
  const math::Matrix probe = data.x.slice_rows(0, 20);
  const auto classes = clf->classify(probe);
  const auto conf = clf->malware_confidence(probe);
  for (std::size_t i = 0; i < 20; ++i) {
    if (classes[i] == data::kMalwareLabel) {
      EXPECT_GE(conf[i], 0.5);
    } else {
      EXPECT_LE(conf[i], 0.5);
    }
  }
}

TEST(DimReduction, DiscardsOffComponentPerturbation) {
  // A perturbation orthogonal to the kept components must not change the
  // projected representation (the defense's whole premise).
  const auto data = correlated_blobs(300, 10, 9);
  DimReductionConfig cfg;
  cfg.k = 1;  // keep only the dominant direction
  cfg.training.epochs = 10;
  auto clf = train_dim_reduction_defense(data, cfg);

  math::Matrix x = data.x.slice_rows(0, 1);
  const math::Matrix z_before = clf->pca().transform(x);
  // Perturb along a direction orthogonal to component 0.
  const auto& comp = clf->pca().components();
  math::Matrix perturbed = x;
  // Build any vector orthogonal to comp(:,0): swap two loadings, negate one.
  perturbed(0, 0) += 0.2f * comp(1, 0);
  perturbed(0, 1) -= 0.2f * comp(0, 0);
  const math::Matrix z_after = clf->pca().transform(perturbed);
  EXPECT_NEAR(z_before(0, 0), z_after(0, 0), 1e-3);
}

TEST(DimReduction, ConstructorValidation) {
  math::Pca unfitted;
  nn::MlpConfig cfg;
  cfg.dims = {3, 4, 2};
  auto net = std::make_shared<nn::Network>(nn::make_mlp(cfg));
  EXPECT_THROW(DimReductionClassifier(unfitted, net), std::invalid_argument);
  EXPECT_THROW(DimReductionClassifier(unfitted, nullptr),
               std::invalid_argument);

  const auto data = correlated_blobs(50, 6, 10);
  math::Pca pca;
  pca.fit(data.x, 2);  // k = 2 != network input 3
  EXPECT_THROW(DimReductionClassifier(pca, net), std::invalid_argument);
}

}  // namespace
}  // namespace mev::defense
