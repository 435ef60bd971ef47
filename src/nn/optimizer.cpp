#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "math/parallel.hpp"

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

/// Elements below which a step stays on the calling thread. On a 4-vCPU
/// AVX-512 VM a step costs about 3.1 ns per element (it is bound by
/// double division and sqrt) and opening and joining a region on a warm
/// team of 2 about 1 µs: 4096 elements take 12.9 µs on one thread and
/// 7.6 µs split, while below about a thousand the fork eats the saving.
/// The tiny substitute (29,970 parameters) and the detector split; test
/// networks of a few dozen parameters do not.
constexpr std::size_t kMinSplitElements = 4096;

/// Adam on n elements. Locals and __restrict pointers let GCC vectorize
/// the loop; the sqrt needs -fno-math-errno, set on this file in
/// CMakeLists.txt. Each lane runs the scalar operations in the scalar
/// order, and IEEE division and sqrt round the same in a SIMD lane as in
/// scalar code (contraction is off), so the updated bits depend neither
/// on the vector width nor on where a thread's share begins.
void update(float lr, double bc1, double bc2, std::size_t n,
            float* __restrict value, const float* __restrict grad,
            float* __restrict m, float* __restrict v) {
  constexpr float one_minus_beta1 = 1.0f - kAdamBeta1;
  constexpr float one_minus_beta2 = 1.0f - kAdamBeta2;
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
  std::size_t elements = 0;
  for (const auto& p : params) elements += p.value->size();
  // Every element's update is independent: each thread takes its share of
  // every tensor.
  math::on_team(elements >= kMinSplitElements, [&](std::size_t part,
                                                   std::size_t parts) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      const math::Share s = math::share_of(params[i].value->size(),
                                           math::kFloatsPerLine, part, parts);
      update(learning_rate_, bc1, bc2, s.end - s.begin,
             params[i].value->data() + s.begin,
             params[i].grad->data() + s.begin, m_[i].data() + s.begin,
             v_[i].data() + s.begin);
    }
  });
}

}  // namespace mev::nn
