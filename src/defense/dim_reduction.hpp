// Dimensionality-reduction defense (§II-C.4, Bhagoji et al. 2017): project
// inputs to the first k principal components (k << n; the paper uses
// k = 19) and train the classifier in the reduced space. Adversarial
// perturbations concentrated outside the kept components are discarded by
// the projection.
#pragma once

#include <memory>

#include "defense/classifier.hpp"
#include "math/pca.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"

namespace mev::defense {

struct DimReductionConfig {
  std::size_t k = 19;
  /// Hidden widths of the classifier trained on the k-dim projection
  /// (input k and output 2 are added automatically).
  std::vector<std::size_t> hidden = {64, 32};
  nn::TrainConfig training;
  std::uint64_t seed = 11;
};

class DimReductionClassifier final : public Classifier {
 public:
  DimReductionClassifier(math::Pca pca, std::shared_ptr<nn::Network> net);

  std::vector<int> classify(const math::Matrix& features) override;
  std::vector<double> malware_confidence(const math::Matrix& features) override;
  std::string name() const override { return "dim-reduction"; }

  const math::Pca& pca() const noexcept { return pca_; }
  const nn::Network& network() const noexcept { return *net_; }

 private:
  math::Pca pca_;
  std::shared_ptr<nn::Network> net_;
  std::unique_ptr<nn::InferenceSession> session_;
};

/// Fits PCA on the training features and trains the reduced classifier.
std::unique_ptr<DimReductionClassifier> train_dim_reduction_defense(
    const nn::LabeledData& train_data, const DimReductionConfig& config,
    const nn::LabeledData* validation = nullptr);

}  // namespace mev::defense
