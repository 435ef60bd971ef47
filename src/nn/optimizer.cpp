#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace mev::nn {

namespace {

void check_params(const std::vector<ParamRef>& params) {
  for (const auto& p : params) {
    if (p.value == nullptr || p.grad == nullptr)
      throw std::invalid_argument("Adam: null parameter reference");
    if (!p.value->same_shape(*p.grad))
      throw std::invalid_argument("Adam: value/grad shape mismatch");
  }
}

void init_state(std::vector<math::Matrix>& state,
                const std::vector<ParamRef>& params) {
  if (state.empty()) {
    state.reserve(params.size());
    for (const auto& p : params)
      state.emplace_back(p.value->rows(), p.value->cols());
  } else if (state.size() != params.size()) {
    throw std::invalid_argument("Adam: parameter set changed");
  }
}

}  // namespace

Adam::Adam(float learning_rate) : learning_rate_(learning_rate) {
  if (learning_rate_ <= 0.0f)
    throw std::invalid_argument("Adam: learning rate must be positive");
}

void Adam::step(const std::vector<ParamRef>& params) {
  check_params(params);
  init_state(m_, params);
  init_state(v_, params);
  ++step_count_;
  const double bc1 = 1.0 - std::pow(kAdamBeta1, step_count_);
  const double bc2 = 1.0 - std::pow(kAdamBeta2, step_count_);
  // A local and __restrict pointers let GCC vectorize the update loop; the
  // sqrt needs -fno-math-errno, set on this file in CMakeLists.txt. Each
  // lane runs the scalar operations in the scalar order, and IEEE division
  // and sqrt round the same in a SIMD lane as in scalar code (contraction
  // is off), so the updated bits do not depend on the vector width.
  const float lr = learning_rate_;
  constexpr float one_minus_beta1 = 1.0f - kAdamBeta1;
  constexpr float one_minus_beta2 = 1.0f - kAdamBeta2;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::size_t n = params[i].value->size();
    float* __restrict value = params[i].value->data();
    const float* __restrict grad = params[i].grad->data();
    float* __restrict m = m_[i].data();
    float* __restrict v = v_[i].data();
    for (std::size_t j = 0; j < n; ++j) {
      const float g = grad[j];
      m[j] = kAdamBeta1 * m[j] + one_minus_beta1 * g;
      v[j] = kAdamBeta2 * v[j] + one_minus_beta2 * g * g;
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      value[j] -=
          static_cast<float>(lr * mhat / (std::sqrt(vhat) + kAdamEpsilon));
    }
  }
}

}  // namespace mev::nn
