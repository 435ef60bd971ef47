// Adam, the optimizer the paper trains every model with (§III-B:
// lr = 0.001).
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace mev::nn {

struct AdamConfig {
  float learning_rate = 0.001f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float epsilon = 1e-8f;
};

class Adam {
 public:
  explicit Adam(AdamConfig config);

  /// Applies one update using the accumulated gradients in `params`.
  /// The same `params` vector (same order, same shapes) must be passed on
  /// every call; the moment estimates are keyed by position.
  void step(const std::vector<ParamRef>& params);

 private:
  AdamConfig config_;
  std::vector<math::Matrix> m_;
  std::vector<math::Matrix> v_;
  long step_count_ = 0;
};

}  // namespace mev::nn
