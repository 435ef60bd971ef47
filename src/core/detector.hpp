// MalwareDetector: the deployable unit the paper attacks — the feature
// pipeline (log -> counts -> normalized features) plus the DNN, behind one
// API that accepts either raw logs or pre-extracted count vectors.
//
// Threading model: the detector (pipeline + network) is read-only during
// scanning and holds no lock. Every scan takes the nn::InferenceSession
// it evaluates in, so concurrent scans on one shared detector are safe
// when each thread passes its own session (make_session()) — or goes
// through serve::ScoringService, which owns a session per worker.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/api_log.hpp"
#include "data/dataset.hpp"
#include "features/pipeline.hpp"
#include "nn/network.hpp"
#include "nn/session.hpp"
#include "nn/trainer.hpp"

namespace mev::core {

struct Verdict {
  int predicted_class = data::kCleanLabel;
  double malware_confidence = 0.0;  // P(malware)

  bool is_malware() const noexcept {
    return predicted_class == data::kMalwareLabel;
  }
};

class MalwareDetector {
 public:
  /// Assembles a detector from a fitted pipeline and a trained network.
  MalwareDetector(features::FeaturePipeline pipeline,
                  std::shared_ptr<nn::Network> network);

  /// Creates an inference session bound to this detector's network; one
  /// per thread for concurrent scanning.
  nn::InferenceSession make_session(std::size_t max_batch = 0) const;

  /// End-to-end verdict for one log file.
  Verdict scan(nn::InferenceSession& session, const data::ApiLog& log) const;

  /// Verdicts for raw count rows.
  std::vector<Verdict> scan_counts(nn::InferenceSession& session,
                                   const math::Matrix& counts) const;

  /// Verdicts for already-normalized feature rows.
  std::vector<Verdict> scan_features(nn::InferenceSession& session,
                                     const math::Matrix& features) const;

  /// Normalized features for count rows — the representation attacks
  /// perturb.
  math::Matrix features_of_counts(const math::Matrix& counts) const;

  const features::FeaturePipeline& pipeline() const noexcept {
    return pipeline_;
  }
  const nn::Network& network() const noexcept { return *network_; }
  std::shared_ptr<nn::Network> network_ptr() noexcept { return network_; }

 private:
  features::FeaturePipeline pipeline_;
  std::shared_ptr<nn::Network> network_;
};

struct DetectorTrainingResult {
  std::unique_ptr<MalwareDetector> detector;
  /// Normalized feature matrices (train/test) produced during training,
  /// so callers need not re-run the transform.
  math::Matrix train_features;
  math::Matrix test_features;
};

/// Fits the count transform on the training counts, trains a fresh network
/// with the given architecture, and assembles the detector.
DetectorTrainingResult train_detector(const data::DatasetBundle& bundle,
                                      const nn::MlpConfig& architecture,
                                      const nn::TrainConfig& training,
                                      const data::ApiVocab& vocab);

}  // namespace mev::core
