#include "defense/adversarial_training.hpp"

#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "data/dataset.hpp"

namespace mev::defense {

namespace {

/// Byte-exact row hash for duplicate removal.
struct RowKey {
  std::string bytes;
  bool operator==(const RowKey&) const = default;
};

struct RowKeyHash {
  std::size_t operator()(const RowKey& k) const noexcept {
    return std::hash<std::string>{}(k.bytes);
  }
};

RowKey key_of(std::span<const float> row) {
  RowKey k;
  k.bytes.resize(row.size() * sizeof(float));
  std::memcpy(k.bytes.data(), row.data(), k.bytes.size());
  return k;
}

}  // namespace

AdvTrainingSet build_adversarial_training_set(
    const math::Matrix& train_features, const std::vector<int>& train_labels,
    const math::Matrix& adversarial_examples,
    const math::Matrix* extra_clean) {
  if (train_labels.size() != train_features.rows())
    throw std::invalid_argument(
        "build_adversarial_training_set: label count mismatch");
  if (adversarial_examples.rows() > 0 &&
      adversarial_examples.cols() != train_features.cols())
    throw std::invalid_argument(
        "build_adversarial_training_set: feature dim mismatch");

  AdvTrainingSet out;
  out.data.x = train_features;
  out.data.labels = train_labels;
  for (int l : train_labels) {
    if (l == data::kCleanLabel) ++out.stats.clean;
    else ++out.stats.malware;
  }

  // Deduplicate the adversarial block against itself and the original set.
  std::unordered_set<RowKey, RowKeyHash> seen;
  seen.reserve(train_features.rows() + adversarial_examples.rows());
  for (std::size_t r = 0; r < train_features.rows(); ++r)
    seen.insert(key_of(train_features.row(r)));
  for (std::size_t r = 0; r < adversarial_examples.rows(); ++r) {
    const auto row = adversarial_examples.row(r);
    if (!seen.insert(key_of(row)).second) {
      ++out.stats.duplicates_removed;
      continue;
    }
    out.data.x.append_row(row);
    out.data.labels.push_back(data::kMalwareLabel);
    ++out.stats.adversarial;
  }

  // Re-balance with extra clean samples (dedup against everything added).
  if (extra_clean != nullptr && extra_clean->rows() > 0) {
    if (extra_clean->cols() != train_features.cols())
      throw std::invalid_argument(
          "build_adversarial_training_set: extra_clean dim mismatch");
    const std::size_t positive = out.stats.malware + out.stats.adversarial;
    for (std::size_t r = 0;
         r < extra_clean->rows() && out.stats.clean < positive; ++r) {
      const auto row = extra_clean->row(r);
      if (!seen.insert(key_of(row)).second) {
        ++out.stats.duplicates_removed;
        continue;
      }
      out.data.x.append_row(row);
      out.data.labels.push_back(data::kCleanLabel);
      ++out.stats.clean;
    }
  }
  return out;
}

std::shared_ptr<nn::Network> adversarial_training(
    const AdvTrainingSet& training_set,
    const AdversarialTrainingConfig& config) {
  auto net = std::make_shared<nn::Network>(nn::make_mlp(config.architecture));
  nn::train(*net, training_set.data, config.training);
  return net;
}

}  // namespace mev::defense
