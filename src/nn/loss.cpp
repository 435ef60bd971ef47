#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/linalg.hpp"

namespace mev::nn {

namespace {
constexpr double kLogFloor = 1e-12;
}

math::Matrix softmax_rows(const math::Matrix& logits, float temperature) {
  math::Matrix probs = logits;
  for (std::size_t r = 0; r < probs.rows(); ++r)
    math::softmax_inplace(probs.row(r), temperature);
  return probs;
}

LossResult softmax_cross_entropy(const math::Matrix& logits,
                                 const std::vector<int>& labels,
                                 float temperature) {
  if (labels.size() != logits.rows())
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  const std::size_t n = logits.rows(), classes = logits.cols();
  math::Matrix probs = softmax_rows(logits, temperature);

  LossResult result;
  result.grad_logits = probs;
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  const float inv_t = 1.0f / temperature;
  for (std::size_t i = 0; i < n; ++i) {
    const int y = labels[i];
    if (y < 0 || static_cast<std::size_t>(y) >= classes)
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    total -= std::log(std::max<double>(probs(i, y), kLogFloor));
    result.grad_logits(i, y) -= 1.0f;
    // d/dlogits of CE(softmax(logits/T)) carries a 1/T factor.
    for (std::size_t c = 0; c < classes; ++c)
      result.grad_logits(i, c) *= inv_n * inv_t;
  }
  result.loss = total / static_cast<double>(n);
  return result;
}

LossResult soft_label_cross_entropy(const math::Matrix& logits,
                                    const math::Matrix& targets,
                                    float temperature) {
  if (!targets.same_shape(logits))
    throw std::invalid_argument("soft_label_cross_entropy: shape mismatch");
  const std::size_t n = logits.rows(), classes = logits.cols();
  math::Matrix probs = softmax_rows(logits, temperature);

  LossResult result;
  result.grad_logits = math::Matrix(n, classes);
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  const float inv_t = 1.0f / temperature;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < classes; ++c) {
      const double t = targets(i, c);
      if (t > 0.0)
        total -= t * std::log(std::max<double>(probs(i, c), kLogFloor));
      result.grad_logits(i, c) =
          (probs(i, c) - static_cast<float>(t)) * inv_n * inv_t;
    }
  }
  result.loss = total / static_cast<double>(n);
  return result;
}

}  // namespace mev::nn
