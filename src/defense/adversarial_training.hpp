// Adversarial training (§II-C.1, Table V): inject adversarial examples
// (labelled malware) into the training set, re-balance with extra clean
// samples, deduplicate, and retrain the model from scratch.
#pragma once

#include <memory>

#include "math/matrix.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"

namespace mev::defense {

struct AdvTrainingSetStats {
  std::size_t clean = 0;
  std::size_t malware = 0;
  std::size_t adversarial = 0;
  std::size_t duplicates_removed = 0;
  std::size_t total() const noexcept { return clean + malware + adversarial; }
};

struct AdvTrainingSet {
  nn::LabeledData data;        // augmented training set
  AdvTrainingSetStats stats;   // Table V-style composition
};

/// Builds the augmented training set: the original training rows plus
/// `adversarial_examples` rows labelled malware. Exact duplicate rows are
/// removed — the paper's "sanity check on the data to reduce the
/// duplicated samples". If `extra_clean` is non-null, rows from it are
/// appended (labelled clean) until the clean count matches
/// malware + adversarial or the pool is exhausted — the paper's "in order
/// to make the training set balance, we added a subset of clean samples".
AdvTrainingSet build_adversarial_training_set(
    const math::Matrix& train_features, const std::vector<int>& train_labels,
    const math::Matrix& adversarial_examples,
    const math::Matrix* extra_clean = nullptr);

struct AdversarialTrainingConfig {
  nn::MlpConfig architecture;       // fresh model to train
  nn::TrainConfig training;
};

/// Trains a fresh model on the augmented set.
std::shared_ptr<nn::Network> adversarial_training(
    const AdvTrainingSet& training_set, const AdversarialTrainingConfig& config);

}  // namespace mev::defense
