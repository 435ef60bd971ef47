#include "defense/feature_squeezing.hpp"

#include <stdexcept>

#include "data/dataset.hpp"
#include "math/linalg.hpp"
#include "math/stats.hpp"
#include "nn/session.hpp"

namespace mev::defense {

math::Matrix binary_squeeze(const math::Matrix& features) {
  math::Matrix out = features;
  for (std::size_t i = 0; i < out.size(); ++i)
    out.data()[i] = out.data()[i] > 0.5f ? 1.0f : 0.0f;
  return out;
}

FeatureSqueezing::FeatureSqueezing(std::shared_ptr<nn::Network> model,
                                   double threshold)
    : model_(std::move(model)), threshold_(threshold) {
  if (model_ == nullptr)
    throw std::invalid_argument("FeatureSqueezing: null model");
  if (threshold_ < 0.0)
    throw std::invalid_argument("FeatureSqueezing: negative threshold");
  session_ = std::make_unique<nn::InferenceSession>(*model_);
}

std::vector<double> FeatureSqueezing::scores(const math::Matrix& features) {
  // Copy the first probability matrix: the second predict_proba call
  // reuses the session buffer.
  const math::Matrix p_original = session_->predict_proba(features);
  const math::Matrix& p_squeezed =
      session_->predict_proba(binary_squeeze(features));
  std::vector<double> out(features.rows());
  for (std::size_t i = 0; i < features.rows(); ++i)
    out[i] = math::l1_distance(p_original.row(i), p_squeezed.row(i));
  return out;
}

std::vector<bool> FeatureSqueezing::is_adversarial(
    const math::Matrix& features) {
  const auto s = scores(features);
  std::vector<bool> flagged(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) flagged[i] = s[i] > threshold_;
  return flagged;
}

std::vector<int> FeatureSqueezing::classify(const math::Matrix& features) {
  const auto flagged = is_adversarial(features);
  const auto session_preds = session_->predict(features);
  std::vector<int> preds(session_preds.begin(), session_preds.end());
  for (std::size_t i = 0; i < preds.size(); ++i)
    if (flagged[i]) preds[i] = data::kMalwareLabel;
  return preds;
}

double FeatureSqueezing::calibrate_threshold(
    const nn::Network& model, const math::Matrix& legitimate_features,
    double percentile) {
  if (legitimate_features.rows() == 0)
    throw std::invalid_argument("calibrate_threshold: empty calibration set");
  nn::InferenceSession session(model, legitimate_features.rows());
  const math::Matrix p_original = session.predict_proba(legitimate_features);
  const math::Matrix& p_squeezed =
      session.predict_proba(binary_squeeze(legitimate_features));
  std::vector<double> s(legitimate_features.rows());
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i] = math::l1_distance(p_original.row(i), p_squeezed.row(i));
  return math::percentile(s, percentile);
}

}  // namespace mev::defense
