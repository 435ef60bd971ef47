// Loss functions. Softmax cross-entropy supports a distillation
// temperature T and soft (probability) targets, which is what defensive
// distillation (§II-C.2 of the paper) trains with.
#pragma once

#include <vector>

#include "math/matrix.hpp"

namespace mev::nn {

struct LossResult {
  double loss = 0.0;          // mean loss over the batch
  math::Matrix grad_logits;   // dLoss/dLogits (already divided by batch size)
};

/// Softmax cross-entropy with integer class labels.
/// `logits` is batch x classes; `labels[i]` in [0, classes).
/// Temperature divides the logits before the softmax (T >= 1 softens).
LossResult softmax_cross_entropy(const math::Matrix& logits,
                                 const std::vector<int>& labels,
                                 float temperature = 1.0f);

/// Softmax cross-entropy with soft probability targets (batch x classes,
/// each row summing to ~1). Used for distillation student training.
LossResult soft_label_cross_entropy(const math::Matrix& logits,
                                    const math::Matrix& targets,
                                    float temperature = 1.0f);

/// Row-wise softmax of logits at the given temperature.
math::Matrix softmax_rows(const math::Matrix& logits,
                          float temperature = 1.0f);

}  // namespace mev::nn
