#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace mev::nn {

namespace {

void check_params(const std::vector<ParamRef>& params) {
  for (const auto& p : params) {
    if (p.value == nullptr || p.grad == nullptr)
      throw std::invalid_argument("Optimizer: null parameter reference");
    if (!p.value->same_shape(*p.grad))
      throw std::invalid_argument("Optimizer: value/grad shape mismatch");
  }
}

void init_state(std::vector<math::Matrix>& state,
                const std::vector<ParamRef>& params) {
  if (state.empty()) {
    state.reserve(params.size());
    for (const auto& p : params)
      state.emplace_back(p.value->rows(), p.value->cols());
  } else if (state.size() != params.size()) {
    throw std::invalid_argument("Optimizer: parameter set changed");
  }
}

}  // namespace

Sgd::Sgd(SgdConfig config) : config_(config) {
  if (config_.learning_rate <= 0.0f)
    throw std::invalid_argument("Sgd: learning rate must be positive");
}

void Sgd::step(const std::vector<ParamRef>& params) {
  check_params(params);
  init_state(velocity_, params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    math::Matrix& value = *params[i].value;
    const math::Matrix& grad = *params[i].grad;
    math::Matrix& vel = velocity_[i];
    for (std::size_t j = 0; j < value.size(); ++j) {
      float g = grad.data()[j];
      if (config_.weight_decay > 0.0f)
        g += config_.weight_decay * value.data()[j];
      if (config_.momentum > 0.0f) {
        vel.data()[j] = config_.momentum * vel.data()[j] - config_.learning_rate * g;
        value.data()[j] += vel.data()[j];
      } else {
        value.data()[j] -= config_.learning_rate * g;
      }
    }
  }
}

Adam::Adam(AdamConfig config) : config_(config) {
  if (config_.learning_rate <= 0.0f)
    throw std::invalid_argument("Adam: learning rate must be positive");
  if (config_.beta1 < 0.0f || config_.beta1 >= 1.0f ||
      config_.beta2 < 0.0f || config_.beta2 >= 1.0f)
    throw std::invalid_argument("Adam: betas must be in [0, 1)");
}

void Adam::step(const std::vector<ParamRef>& params) {
  check_params(params);
  init_state(m_, params);
  init_state(v_, params);
  ++step_count_;
  const double bc1 = 1.0 - std::pow(config_.beta1, step_count_);
  const double bc2 = 1.0 - std::pow(config_.beta2, step_count_);
  // Locals and __restrict pointers let GCC vectorize the update loop; the
  // sqrt needs -fno-math-errno, set on this file in CMakeLists.txt. Each
  // lane runs the scalar operations in the scalar order, and IEEE division
  // and sqrt round the same in a SIMD lane as in scalar code (contraction
  // is off), so the updated bits do not depend on the vector width.
  const float lr = config_.learning_rate;
  const float beta1 = config_.beta1;
  const float beta2 = config_.beta2;
  const float one_minus_beta1 = 1.0f - beta1;
  const float one_minus_beta2 = 1.0f - beta2;
  const float epsilon = config_.epsilon;
  const float weight_decay = config_.weight_decay;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::size_t n = params[i].value->size();
    float* __restrict value = params[i].value->data();
    const float* __restrict grad = params[i].grad->data();
    float* __restrict m = m_[i].data();
    float* __restrict v = v_[i].data();
    for (std::size_t j = 0; j < n; ++j) {
      float g = grad[j];
      if (weight_decay > 0.0f) g += weight_decay * value[j];
      m[j] = beta1 * m[j] + one_minus_beta1 * g;
      v[j] = beta2 * v[j] + one_minus_beta2 * g * g;
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      value[j] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + epsilon));
    }
  }
}

}  // namespace mev::nn
