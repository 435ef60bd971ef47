#include "attack/source_attack.hpp"

#include <algorithm>
#include <stdexcept>

#include "data/dataset.hpp"
#include "nn/session.hpp"

namespace mev::attack {

std::vector<float> per_call_feature_delta(
    const features::FeaturePipeline& pipeline,
    std::span<const float> raw_counts) {
  const std::vector<float> base = pipeline.features_from_counts_row(raw_counts);
  std::vector<float> bumped_counts(raw_counts.begin(), raw_counts.end());
  for (auto& c : bumped_counts) c += 1.0f;
  // Valid because both shipped transforms are elementwise: feature j of
  // the all-bumped row equals feature j of "only j bumped".
  const std::vector<float> bumped = pipeline.features_from_counts_row(bumped_counts);
  std::vector<float> delta(base.size());
  for (std::size_t j = 0; j < base.size(); ++j)
    delta[j] = std::max(0.0f, bumped[j] - base[j]);
  return delta;
}

LiveTestResult run_live_test(const nn::Network& target_model,
                             const features::FeaturePipeline& pipeline,
                             const data::ApiLog& malware_log,
                             std::size_t api_feature_index,
                             std::size_t max_insertions) {
  const auto& vocab = pipeline.extractor().vocab();
  if (api_feature_index >= vocab.size())
    throw std::invalid_argument("run_live_test: feature index out of range");

  LiveTestResult result;
  result.feature_index = api_feature_index;
  result.api_name = vocab.name(api_feature_index);
  result.points.reserve(max_insertions + 1);

  nn::InferenceSession session(target_model, 1);
  for (std::size_t k = 0; k <= max_insertions; ++k) {
    data::ApiLog modified = malware_log;
    modified.append_calls(result.api_name, k);
    const auto feats = pipeline.features_from_log(modified);
    const math::Matrix& probs =
        session.predict_proba(math::Matrix::row_vector(feats));
    LiveTestPoint point;
    point.insertions = k;
    point.malware_confidence = probs(0, data::kMalwareLabel);
    point.predicted_class =
        probs(0, data::kMalwareLabel) >= probs(0, data::kCleanLabel)
            ? data::kMalwareLabel
            : data::kCleanLabel;
    result.points.push_back(point);
  }
  return result;
}

LiveTestResult run_live_test(const nn::Network& target_model,
                             const nn::Network& craft_model,
                             const features::FeaturePipeline& pipeline,
                             const data::ApiLog& malware_log,
                             std::size_t max_insertions) {
  const auto counts = pipeline.extractor().extract(malware_log);
  const auto feats = pipeline.features_from_counts_row(counts);
  const auto delta = per_call_feature_delta(pipeline, counts);
  nn::InferenceSession craft_session(craft_model, 1);
  // Copy: the candidate loop below reuses craft_session's buffers.
  const math::Matrix grad = craft_session.input_gradient(
      math::Matrix::row_vector(feats), data::kCleanLabel);

  // Shortlist candidates by saliency, then SIMULATE the insertion against
  // the attacker's own substitute (which the attacker can query freely)
  // and engage the target with the candidate that works best there. The
  // gradient is only a local signal; the simulation checks the whole
  // insertion budget.
  struct Candidate {
    std::size_t feature;
    float score;
  };
  std::vector<Candidate> candidates;
  for (std::size_t j = 0; j < feats.size(); ++j) {
    const float headroom = 1.0f - feats[j];
    if (headroom <= 0.0f || delta[j] <= 0.0f) continue;
    const float movement = std::min(
        headroom, static_cast<float>(max_insertions) * delta[j]);
    const float score = grad(0, j) * movement;
    if (score > 0.0f) candidates.push_back({j, score});
  }
  if (candidates.empty())
    throw std::runtime_error("run_live_test: no admissible API to add");
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });
  if (candidates.size() > 10) candidates.resize(10);

  std::size_t best_feature = candidates.front().feature;
  double best_confidence = 2.0;
  for (const Candidate& c : candidates) {
    std::vector<float> bumped(counts.begin(), counts.end());
    bumped[c.feature] += static_cast<float>(max_insertions);
    const auto bumped_feats = pipeline.features_from_counts_row(bumped);
    const math::Matrix& probs = craft_session.predict_proba(
        math::Matrix::row_vector(bumped_feats));
    if (probs(0, data::kMalwareLabel) < best_confidence) {
      best_confidence = probs(0, data::kMalwareLabel);
      best_feature = c.feature;
    }
  }
  return run_live_test(target_model, pipeline, malware_log, best_feature,
                       max_insertions);
}

}  // namespace mev::attack
