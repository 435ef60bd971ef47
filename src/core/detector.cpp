#include "core/detector.hpp"

#include <stdexcept>

#include "features/transform.hpp"

namespace mev::core {

MalwareDetector::MalwareDetector(features::FeaturePipeline pipeline,
                                 std::shared_ptr<nn::Network> network)
    : pipeline_(std::move(pipeline)),
      network_(std::move(network)) {
  if (network_ == nullptr)
    throw std::invalid_argument("MalwareDetector: null network");
  if (network_->input_dim() != pipeline_.dim())
    throw std::invalid_argument(
        "MalwareDetector: pipeline/network dimension mismatch");
}

nn::InferenceSession MalwareDetector::make_session(
    std::size_t max_batch) const {
  return nn::InferenceSession(*network_, max_batch);
}

Verdict MalwareDetector::scan(nn::InferenceSession& session,
                              const data::ApiLog& log) const {
  const auto feats = pipeline_.features_from_log(log);
  return scan_features(session, math::Matrix::row_vector(feats)).front();
}

std::vector<Verdict> MalwareDetector::scan_counts(
    nn::InferenceSession& session, const math::Matrix& counts) const {
  return scan_features(session, pipeline_.features_from_counts(counts));
}

std::vector<Verdict> MalwareDetector::scan_features(
    nn::InferenceSession& session, const math::Matrix& features) const {
  const math::Matrix& probs = session.predict_proba(features);
  std::vector<Verdict> verdicts(features.rows());
  for (std::size_t i = 0; i < features.rows(); ++i) {
    verdicts[i].malware_confidence = probs(i, data::kMalwareLabel);
    verdicts[i].predicted_class =
        probs(i, data::kMalwareLabel) >= probs(i, data::kCleanLabel)
            ? data::kMalwareLabel
            : data::kCleanLabel;
  }
  return verdicts;
}

math::Matrix MalwareDetector::features_of_counts(
    const math::Matrix& counts) const {
  return pipeline_.features_from_counts(counts);
}

DetectorTrainingResult train_detector(const data::DatasetBundle& bundle,
                                      const nn::MlpConfig& architecture,
                                      const nn::TrainConfig& training,
                                      const data::ApiVocab& vocab) {
  auto transform = std::make_unique<features::CountTransform>();
  transform->fit(bundle.train.counts);
  features::FeaturePipeline pipeline(vocab, std::move(transform));

  DetectorTrainingResult result;
  result.train_features = pipeline.features_from_counts(bundle.train.counts);
  result.test_features = pipeline.features_from_counts(bundle.test.counts);

  auto network = std::make_shared<nn::Network>(nn::make_mlp(architecture));
  nn::LabeledData train_data{result.train_features, bundle.train.labels};
  nn::train(*network, train_data, training);

  result.detector =
      std::make_unique<MalwareDetector>(std::move(pipeline), network);
  return result;
}

}  // namespace mev::core
