#include "defense/dim_reduction.hpp"

#include <stdexcept>

#include "data/dataset.hpp"
#include "nn/session.hpp"

namespace mev::defense {

DimReductionClassifier::DimReductionClassifier(
    math::Pca pca, std::shared_ptr<nn::Network> net)
    : pca_(std::move(pca)), net_(std::move(net)) {
  if (net_ == nullptr)
    throw std::invalid_argument("DimReductionClassifier: null network");
  if (!pca_.fitted())
    throw std::invalid_argument("DimReductionClassifier: unfitted PCA");
  if (net_->input_dim() != pca_.k())
    throw std::invalid_argument(
        "DimReductionClassifier: network/PCA dimension mismatch");
  session_ = std::make_unique<nn::InferenceSession>(*net_);
}

std::vector<int> DimReductionClassifier::classify(
    const math::Matrix& features) {
  const auto preds = session_->predict(pca_.transform(features));
  return {preds.begin(), preds.end()};
}

std::vector<double> DimReductionClassifier::malware_confidence(
    const math::Matrix& features) {
  const math::Matrix& probs = session_->predict_proba(pca_.transform(features));
  std::vector<double> conf(probs.rows());
  for (std::size_t i = 0; i < probs.rows(); ++i)
    conf[i] = probs(i, data::kMalwareLabel);
  return conf;
}

std::unique_ptr<DimReductionClassifier> train_dim_reduction_defense(
    const nn::LabeledData& train_data, const DimReductionConfig& config) {
  math::Pca pca;
  pca.fit(train_data.x, config.k);

  nn::MlpConfig arch;
  arch.dims = {config.k, 64, 32, 2};
  arch.seed = config.seed;
  auto net = std::make_shared<nn::Network>(nn::make_mlp(arch));

  nn::LabeledData reduced;
  reduced.x = pca.transform(train_data.x);
  reduced.labels = train_data.labels;

  nn::train(*net, reduced, config.training);
  return std::make_unique<DimReductionClassifier>(std::move(pca),
                                                  std::move(net));
}

}  // namespace mev::defense
