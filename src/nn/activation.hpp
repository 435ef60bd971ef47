// Activation functions for dense layers.
#pragma once

#include <cstdint>
#include <string>

#include "math/matrix.hpp"

namespace mev::nn {

enum class Activation : std::uint8_t {
  kIdentity = 0,
  kRelu = 1,
  kSigmoid = 2,
  kTanh = 3,
  kLeakyRelu = 4,  // slope 0.01 for x < 0
};

/// Applies the activation elementwise in place.
void apply_activation(Activation act, math::Matrix& z);

/// Given pre-activation z and activation output a = act(z), multiplies
/// grad (elementwise, in place) by act'(z). `a` and `z` must be the values
/// cached from the forward pass.
void apply_activation_grad(Activation act, const math::Matrix& z,
                           const math::Matrix& a, math::Matrix& grad);

std::string to_string(Activation act);

}  // namespace mev::nn
