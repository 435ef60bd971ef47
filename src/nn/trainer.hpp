// Mini-batch Adam training loop with shuffling. Matches the paper's
// training regime (§III-B: Adam, lr 0.001, batch 256).
#pragma once

#include <cstdint>
#include <vector>

#include "math/matrix.hpp"
#include "nn/network.hpp"

namespace mev::obs {
class Tracer;
class MetricsRegistry;
}  // namespace mev::obs

namespace mev::nn {

struct TrainConfig {
  std::size_t epochs = 30;
  std::size_t batch_size = 256;
  float learning_rate = 0.001f;  // Adam's step size
  /// Softmax temperature used in the loss (defensive distillation trains
  /// the student at high T; normal training uses 1).
  float temperature = 1.0f;
  std::uint64_t shuffle_seed = 7;
  /// Observability sinks: per-epoch mev.nn.train.epoch spans (loss, lr,
  /// wall time) and mev.nn.train.* counters/gauges. nullptr = the ambient
  /// obs::current_tracer()/current_registry() (no-ops unless opted in).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Hard-label training set.
struct LabeledData {
  math::Matrix x;            // n x features
  std::vector<int> labels;   // n
};

/// Trains with integer labels via softmax cross-entropy. Returns the mean
/// training loss of each epoch; throws std::runtime_error if it turns
/// non-finite (the training diverged).
std::vector<double> train(Network& net, const LabeledData& train_data,
                          const TrainConfig& config);

/// Trains with soft probability targets (distillation student).
std::vector<double> train_soft(Network& net, const math::Matrix& x,
                               const math::Matrix& soft_targets,
                               const TrainConfig& config);

/// Fraction of samples whose argmax prediction matches the label.
double accuracy(const Network& net, const math::Matrix& x,
                const std::vector<int>& labels);

}  // namespace mev::nn
