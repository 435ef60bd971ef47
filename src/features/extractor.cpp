#include "features/extractor.hpp"

namespace mev::features {

std::vector<float> CountExtractor::extract(const data::ApiLog& log) const {
  std::vector<float> counts(vocab_->size(), 0.0f);
  for (const auto& call : log.calls) {
    const auto idx = vocab_->index_of(call.api);
    if (idx.has_value()) counts[*idx] += 1.0f;
  }
  return counts;
}

}  // namespace mev::features
