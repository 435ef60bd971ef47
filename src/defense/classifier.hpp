// A uniform "defended classifier" interface so the Table VI evaluation can
// score every defense the same way: features in, class out.
//
// Detection-style defenses (feature squeezing) map "flagged as adversarial"
// to the malware class: an input rejected by the detector is blocked, which
// operationally equals a malware verdict.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "math/matrix.hpp"
#include "nn/network.hpp"
#include "nn/session.hpp"

namespace mev::defense {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Class per row (0 clean, 1 malware).
  virtual std::vector<int> classify(const math::Matrix& features) = 0;

  /// P(malware) per row, when the defense exposes a score.
  virtual std::vector<double> malware_confidence(const math::Matrix& features);

  virtual std::string name() const = 0;
};

/// Wraps a plain network (no defense, adversarially trained, distilled...).
/// Owns its inference session, so several classifiers may share one
/// network; a single classifier instance is not safe to call concurrently.
class NetworkClassifier final : public Classifier {
 public:
  /// Takes shared ownership so classifiers can outlive their builders.
  explicit NetworkClassifier(std::shared_ptr<nn::Network> net,
                             std::string name = "network");

  std::vector<int> classify(const math::Matrix& features) override;
  std::vector<double> malware_confidence(const math::Matrix& features) override;
  std::string name() const override { return name_; }

  const nn::Network& network() const noexcept { return *net_; }

 private:
  std::shared_ptr<nn::Network> net_;
  std::unique_ptr<nn::InferenceSession> session_;
  std::string name_;
};

}  // namespace mev::defense
