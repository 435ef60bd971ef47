// Dataset containers and the Table I split specification.
//
// Label convention follows the paper's Eq. 1: class 0 = clean,
// class 1 = malware. "Detection rate" is the fraction of malware samples
// classified as class 1.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "math/matrix.hpp"

namespace mev::data {

inline constexpr int kCleanLabel = 0;
inline constexpr int kMalwareLabel = 1;

/// Raw API-count vectors (one row per sample) with labels.
struct CountDataset {
  math::Matrix counts;       // n x kNumApiFeatures, raw counts as floats
  std::vector<int> labels;   // n entries, kCleanLabel / kMalwareLabel

  std::size_t size() const noexcept { return labels.size(); }

  std::size_t count_label(int label) const noexcept {
    std::size_t n = 0;
    for (int l : labels)
      if (l == label) ++n;
    return n;
  }

  /// Rows whose label matches.
  std::vector<std::size_t> indices_of(int label) const;
};

/// Sample counts for the three splits (paper Table I).
struct DatasetSpec {
  std::size_t train_clean = 0;
  std::size_t train_malware = 0;
  std::size_t val_clean = 0;
  std::size_t val_malware = 0;
  std::size_t test_clean = 0;
  std::size_t test_malware = 0;

  std::size_t train_total() const noexcept { return train_clean + train_malware; }
  std::size_t val_total() const noexcept { return val_clean + val_malware; }
  std::size_t test_total() const noexcept { return test_clean + test_malware; }

  /// The paper's exact Table I sizes:
  /// train 57,170 (28,594 clean / 28,576 malware), val 578 (280/298),
  /// test 45,028 (16,154 clean / 28,874 malware).
  static DatasetSpec paper();

  /// Paper proportions scaled by `factor` in (0, 1]; every class count is
  /// at least `min_per_class`.
  static DatasetSpec scaled(double factor, std::size_t min_per_class = 16);
};

/// Train/validation/test bundle.
struct DatasetBundle {
  CountDataset train;
  CountDataset validation;
  CountDataset test;
};

std::string describe(const DatasetSpec& spec);

}  // namespace mev::data
