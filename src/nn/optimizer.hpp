// Adam, the optimizer the paper trains every model with (§III-B:
// lr = 0.001). The moment decay rates and epsilon are the Adam paper's
// defaults (Kingma and Ba); only the learning rate is a parameter.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace mev::nn {

inline constexpr float kAdamBeta1 = 0.9f;
inline constexpr float kAdamBeta2 = 0.999f;
inline constexpr float kAdamEpsilon = 1e-8f;

class Adam {
 public:
  /// Throws std::invalid_argument unless `learning_rate` > 0.
  explicit Adam(float learning_rate);

  /// Applies one update using the accumulated gradients in `params`.
  /// The same `params` vector (same order, same shapes) must be passed on
  /// every call; the moment estimates are keyed by position.
  void step(const std::vector<ParamRef>& params);

 private:
  float learning_rate_;
  std::vector<math::Matrix> m_;
  std::vector<math::Matrix> v_;
  long step_count_ = 0;
};

}  // namespace mev::nn
