// Shared setup for the figure/table reproduction binaries: scale parsing,
// corpus generation, target-detector training, and the attacked subsets.
#pragma once

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/experiment_config.hpp"
#include "data/api_vocab.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"

namespace mev::bench {

struct Environment {
  core::ExperimentConfig config;
  data::GenerativeModel generator;
  data::DatasetBundle bundle;
  core::DetectorTrainingResult trained;

  core::MalwareDetector& detector() { return *trained.detector; }
  const nn::Network& target_network() const {
    return trained.detector->network();
  }

  /// Raw counts of attacked malware test rows (capped by the scale).
  math::Matrix malware_counts;
  /// Target-space features of the same rows.
  math::Matrix malware_features;
  /// Target-space features of all clean test rows.
  math::Matrix clean_features;
};

inline core::ExperimentConfig parse_scale(int argc, char** argv,
                                          const char* default_scale = "fast") {
  const std::string name = argc > 1 ? argv[1] : default_scale;
  return core::ExperimentConfig::from_name(name);
}

/// Generates the corpus and trains the target detector; prints progress.
inline Environment make_environment(const core::ExperimentConfig& config) {
  const auto& vocab = data::ApiVocab::instance();
  std::cerr << "# scale=" << core::to_string(config.scale)
            << " seed=" << config.seed << "\n";
  std::cerr << "# generating corpus and training the target detector...\n";
  data::GenerativeModel generator(vocab, data::GenerativeConfig{});
  math::Rng rng(config.seed);
  data::DatasetBundle bundle =
      generator.generate_bundle(config.dataset_spec(), rng);
  auto trained = core::train_detector(bundle, config.target_architecture(),
                                      config.target_training(), vocab);

  Environment env{config, std::move(generator), std::move(bundle),
                  std::move(trained), {}, {}, {}};

  const auto malware_rows = env.bundle.test.indices_of(data::kMalwareLabel);
  std::vector<std::size_t> rows(
      malware_rows.begin(),
      malware_rows.begin() +
          std::min(malware_rows.size(), config.attack_sample_cap()));
  env.malware_counts = env.bundle.test.counts.gather_rows(rows);
  env.malware_features = env.trained.test_features.gather_rows(rows);
  const auto clean_rows = env.bundle.test.indices_of(data::kCleanLabel);
  env.clean_features = env.trained.test_features.gather_rows(clean_rows);
  return env;
}

/// Baseline detection metrics, for the "no attack" anchor row.
inline eval::ConfusionMatrix baseline_confusion(Environment& env) {
  nn::InferenceSession session = env.detector().make_session();
  const auto preds = session.predict(env.trained.test_features);
  return eval::confusion(env.bundle.test.labels, {preds.begin(), preds.end()});
}

/// The attacker's own dataset (same distribution, independent draw) for
/// substitute training — "the attacker's ... training data are different
/// from the target['s]".
inline data::CountDataset attacker_dataset(Environment& env) {
  math::Rng rng(env.config.seed ^ 0x4772657942ULL);  // "GreyB"
  const auto spec = env.config.dataset_spec();
  return env.generator.generate_dataset(spec.train_clean, spec.train_malware,
                                        rng);
}

}  // namespace mev::bench
