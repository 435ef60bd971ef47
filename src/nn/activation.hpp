// Activation functions for dense layers.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace mev::nn {

enum class Activation : std::uint8_t {
  kIdentity = 0,
  kRelu = 1,
  kSigmoid = 2,
  kTanh = 3,
  kLeakyRelu = 4,  // slope 0.01 for x < 0
};

/// Applies the activation elementwise in place. A span, not a matrix, so
/// a thread can run it over its own rows of a batch.
void apply_activation(Activation act, std::span<float> z);

/// Given pre-activation z and activation output a = act(z), multiplies
/// grad (elementwise, in place) by act'(z). `a` and `z` must be the values
/// cached from the forward pass; all three must have the same length
/// (std::invalid_argument).
void apply_activation_grad(Activation act, std::span<const float> z,
                           std::span<const float> a, std::span<float> grad);

std::string to_string(Activation act);

}  // namespace mev::nn
