// Log -> raw API-count extraction ("The raw counts of the APIs", §II-A).
#pragma once

#include <vector>

#include "data/api_log.hpp"
#include "data/api_vocab.hpp"
#include "math/matrix.hpp"

namespace mev::features {

/// Counts occurrences of each vocabulary API in the log. APIs not in the
/// vocabulary are ignored (the sandbox hooks a fixed API set).
class CountExtractor {
 public:
  explicit CountExtractor(const data::ApiVocab& vocab) : vocab_(&vocab) {}

  /// Raw count vector, length == vocab.size().
  std::vector<float> extract(const data::ApiLog& log) const;

  const data::ApiVocab& vocab() const noexcept { return *vocab_; }

 private:
  const data::ApiVocab* vocab_;
};

}  // namespace mev::features
