// Substitute-model training for grey-box attacks (§II-B.2, Table IV).
//
// The grey-box attacker trains its own 5-layer DNN on its own data. The
// paper's two grey-box variants differ in feature knowledge:
//  * exact features — the attacker reproduces the target's count
//    transformation;
//  * API names only — the attacker falls back to binary presence features
//    (Fig. 4(c)).
#pragma once

#include <memory>

#include "core/detector.hpp"
#include "core/experiment_config.hpp"
#include "data/dataset.hpp"
#include "features/pipeline.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"

namespace mev::core {

struct SubstituteResult {
  features::FeaturePipeline pipeline;   // the attacker's pipeline
  std::shared_ptr<nn::Network> network;
  double train_accuracy = 0.0;
};

/// Trains a substitute on the ATTACKER'S dataset (same distribution but
/// disjoint from the target's training data) using the TARGET's exact
/// feature pipeline — the paper's first grey-box experiment assumes "the
/// attacker knows the exact 491 features", i.e. the feature definition
/// including the count transformation.
SubstituteResult train_substitute_exact_features(
    const data::CountDataset& attacker_data, const ExperimentConfig& config,
    const features::FeaturePipeline& target_pipeline);

/// Trains a substitute on binary presence features (the reduced-knowledge
/// variant of Fig. 4(c)).
SubstituteResult train_substitute_binary_features(
    const data::CountDataset& attacker_data, const ExperimentConfig& config,
    const data::ApiVocab& vocab);

}  // namespace mev::core
