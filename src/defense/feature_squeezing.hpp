// Feature squeezing (§II-C.3, Xu et al. 2018): compare the model's
// prediction on the original input with its prediction on a "squeezed"
// input; if the L1 distance between the two probability vectors exceeds a
// threshold, the sample is flagged as adversarial. The squeeze is the
// 1-bit one the paper evaluates: binarization of the [0,1] features.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "defense/classifier.hpp"
#include "math/matrix.hpp"
#include "nn/network.hpp"

namespace mev::defense {

/// Each feature above 0.5 becomes 1, every other feature 0.
math::Matrix binary_squeeze(const math::Matrix& features);

/// The squeezing detector + classifier.
class FeatureSqueezing final : public Classifier {
 public:
  FeatureSqueezing(std::shared_ptr<nn::Network> model, double threshold);

  /// Per-row L1 distance between P(original) and P(squeezed).
  std::vector<double> scores(const math::Matrix& features);

  /// True where score > threshold (flagged as adversarial).
  std::vector<bool> is_adversarial(const math::Matrix& features);

  /// Flagged rows are classified malware; the rest get the model verdict.
  std::vector<int> classify(const math::Matrix& features) override;
  std::string name() const override { return "feature-squeezing"; }

  double threshold() const noexcept { return threshold_; }

  /// Picks the threshold as the `percentile`-th percentile of scores on
  /// legitimate (clean + malware) calibration data, so roughly
  /// (100 - percentile)% of legitimate traffic is flagged.
  static double calibrate_threshold(const nn::Network& model,
                                    const math::Matrix& legitimate_features,
                                    double percentile = 95.0);

 private:
  std::shared_ptr<nn::Network> model_;
  std::unique_ptr<nn::InferenceSession> session_;
  double threshold_;
};

}  // namespace mev::defense
