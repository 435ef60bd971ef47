#include "nn/activation.hpp"

#include <cmath>
#include <stdexcept>

namespace mev::nn {

namespace {

// Templated elementwise kernels: the functor is a concrete lambda, so the
// compiler inlines and vectorizes the loop body; the forward/backward hot
// path must not pay a type-erased call per element.
template <typename F>
inline void elementwise(std::span<float> m, F&& f) {
  float* p = m.data();
  const std::size_t n = m.size();
  for (std::size_t i = 0; i < n; ++i) p[i] = f(p[i]);
}

/// grad[i] = f(grad[i], ref[i]) — derivative kernels keyed on the cached
/// forward values (pre-activation z or activation output a).
template <typename F>
inline void elementwise_grad(std::span<float> grad,
                             std::span<const float> ref, F&& f) {
  float* g = grad.data();
  const float* r = ref.data();
  const std::size_t n = grad.size();
  for (std::size_t i = 0; i < n; ++i) g[i] = f(g[i], r[i]);
}

}  // namespace

void apply_activation(Activation act, std::span<float> z) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      elementwise(z, [](float x) { return x > 0.0f ? x : 0.0f; });
      return;
    case Activation::kSigmoid:
      elementwise(z, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
      return;
    case Activation::kTanh:
      elementwise(z, [](float x) { return std::tanh(x); });
      return;
    case Activation::kLeakyRelu:
      elementwise(z, [](float x) { return x > 0.0f ? x : 0.01f * x; });
      return;
  }
  throw std::invalid_argument("apply_activation: unknown activation");
}

void apply_activation_grad(Activation act, std::span<const float> z,
                           std::span<const float> a, std::span<float> grad) {
  if (grad.size() != z.size() || grad.size() != a.size())
    throw std::invalid_argument("apply_activation_grad: shape mismatch");
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      elementwise_grad(grad, z,
                       [](float g, float zi) { return zi <= 0.0f ? 0.0f : g; });
      return;
    case Activation::kSigmoid:
      elementwise_grad(grad, a,
                       [](float g, float ai) { return g * ai * (1.0f - ai); });
      return;
    case Activation::kTanh:
      elementwise_grad(grad, a,
                       [](float g, float ai) { return g * (1.0f - ai * ai); });
      return;
    case Activation::kLeakyRelu:
      elementwise_grad(grad, z, [](float g, float zi) {
        return zi <= 0.0f ? 0.01f * g : g;
      });
      return;
  }
  throw std::invalid_argument("apply_activation_grad: unknown activation");
}

std::string to_string(Activation act) {
  switch (act) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kTanh: return "tanh";
    case Activation::kLeakyRelu: return "leaky_relu";
  }
  return "unknown";
}

}  // namespace mev::nn
