// Small vector-math helpers used across the attack/defense/eval code.
#pragma once

#include <cstddef>
#include <span>

namespace mev::math {

/// Euclidean (L2) distance between two vectors of equal length.
double l2_distance(std::span<const float> a, std::span<const float> b);

/// L1 distance between two vectors of equal length.
double l1_distance(std::span<const float> a, std::span<const float> b);

/// In-place softmax with optional temperature (T > 0). Numerically stable.
void softmax_inplace(std::span<float> logits, float temperature = 1.0f);

/// Index of the maximum element. Requires non-empty input.
std::size_t argmax(std::span<const float> v);

}  // namespace mev::math
