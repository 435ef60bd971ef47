#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "math/rng.hpp"
#include "nn/loss.hpp"
#include "nn/session.hpp"
#include "obs/obs.hpp"

namespace mev::nn {

namespace {

std::unique_ptr<Optimizer> make_optimizer(const TrainConfig& config) {
  switch (config.optimizer) {
    case OptimizerKind::kSgd: {
      SgdConfig sc;
      sc.learning_rate = config.learning_rate;
      sc.momentum = config.momentum;
      sc.weight_decay = config.weight_decay;
      return std::make_unique<Sgd>(sc);
    }
    case OptimizerKind::kAdam: {
      AdamConfig ac;
      ac.learning_rate = config.learning_rate;
      ac.weight_decay = config.weight_decay;
      return std::make_unique<Adam>(ac);
    }
  }
  throw std::invalid_argument("make_optimizer: unknown kind");
}

/// Shared epoch loop; `loss_fn` maps (logits, batch indices) to LossResult.
template <typename LossFn>
TrainHistory run_training(Network& net, const math::Matrix& x, std::size_t n,
                          const TrainConfig& config,
                          const LabeledData* validation, LossFn&& loss_fn) {
  if (n == 0) throw std::invalid_argument("train: empty training set");
  if (config.batch_size == 0)
    throw std::invalid_argument("train: batch_size must be positive");

  auto optimizer = make_optimizer(config);
  // The session owns all activation and gradient buffers, reused across
  // batches; the network itself is only touched by the optimizer step.
  InferenceSession session(net, std::min(n, config.batch_size));
  auto params = session.bind_params(net);
  math::Rng rng(config.shuffle_seed);

  obs::Tracer* tracer = obs::resolve(config.tracer);
  obs::MetricsRegistry* registry = obs::resolve(config.metrics);
  obs::Logger& logger = obs::default_logger();
  obs::Counter epochs_counter =
      registry->counter("mev.nn.train.epochs", "completed training epochs");
  obs::Counter batches_counter =
      registry->counter("mev.nn.train.batches", "completed mini-batches");
  obs::Gauge loss_gauge = registry->gauge(
      "mev.nn.train.loss", "mean training loss of the last completed epoch");

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  TrainHistory history;
  math::Matrix batch_x;
  std::size_t epochs_since_best = 0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    // The span covers shuffling, every batch, and validation — its
    // duration is the epoch wall time in the exported trace.
    obs::Span epoch_span = obs::span(tracer, "mev.nn.train.epoch");
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += config.batch_size) {
      const std::size_t end = std::min(start + config.batch_size, n);
      const std::span<const std::size_t> batch_idx(order.data() + start,
                                                   end - start);
      math::gather_rows_into(x, batch_idx, batch_x);
      session.zero_param_grads();
      const math::Matrix& logits = session.forward(batch_x, /*training=*/true);
      LossResult loss = loss_fn(logits, batch_idx);
      epoch_loss += loss.loss;
      ++batches;
      session.backward_params(loss.grad_logits);
      optimizer->step(params);
    }

    EpochStats stats;
    stats.train_loss = epoch_loss / static_cast<double>(batches);
    if (!std::isfinite(stats.train_loss)) {
      MEV_LOG(logger, obs::LogLevel::kError, "nn.train",
              "non-finite loss, training diverged",
              {obs::LogField::u64_value("epoch", epoch),
               obs::LogField::f64_value("lr", config.learning_rate)});
      throw std::runtime_error(
          "train: non-finite loss at epoch " + std::to_string(epoch) +
          " — training diverged (check learning rate and input scaling)");
    }
    // Per-epoch progress is debug-level (silent at the kWarn default) and
    // rate-limited so tight loops over small sets cannot flood the sink.
    MEV_LOG_EVERY(logger, obs::LogLevel::kDebug, /*rate_per_s=*/5.0,
                  /*burst=*/10.0, "nn.train", "epoch complete",
                  {obs::LogField::u64_value("epoch", epoch),
                   obs::LogField::f64_value("loss", stats.train_loss)});
    if (validation != nullptr)
      stats.val_accuracy = accuracy(net, validation->x, validation->labels);
    history.epochs.push_back(stats);
    epoch_span.arg("epoch", static_cast<double>(epoch));
    epoch_span.arg("loss", stats.train_loss);
    epoch_span.arg("lr", config.learning_rate);
    epochs_counter.inc();
    batches_counter.inc(batches);
    loss_gauge.set(stats.train_loss);
    if (config.on_epoch)
      config.on_epoch(epoch, stats.train_loss, stats.val_accuracy);

    if (validation != nullptr) {
      if (stats.val_accuracy > history.best_val_accuracy) {
        history.best_val_accuracy = stats.val_accuracy;
        history.best_epoch = epoch;
        epochs_since_best = 0;
      } else if (config.early_stopping_patience > 0 &&
                 ++epochs_since_best >= config.early_stopping_patience) {
        history.early_stopped = true;
        MEV_LOG(logger, obs::LogLevel::kInfo, "nn.train", "early stopping",
                {obs::LogField::u64_value("epoch", epoch),
                 obs::LogField::u64_value("best_epoch", history.best_epoch),
                 obs::LogField::f64_value("best_val_accuracy",
                                          history.best_val_accuracy)});
        break;
      }
    }
  }
  return history;
}

}  // namespace

TrainHistory train(Network& net, const LabeledData& train_data,
                   const TrainConfig& config, const LabeledData* validation) {
  if (train_data.labels.size() != train_data.x.rows())
    throw std::invalid_argument(
        "train: " + std::to_string(train_data.labels.size()) +
        " labels for " + std::to_string(train_data.x.rows()) + " rows");
  const int num_classes = static_cast<int>(net.output_dim());
  for (std::size_t i = 0; i < train_data.labels.size(); ++i)
    if (train_data.labels[i] < 0 || train_data.labels[i] >= num_classes)
      throw std::invalid_argument(
          "train: label " + std::to_string(train_data.labels[i]) +
          " at row " + std::to_string(i) + " is outside [0, " +
          std::to_string(num_classes) + ")");
  return run_training(
      net, train_data.x, train_data.x.rows(), config, validation,
      [&](const math::Matrix& logits, std::span<const std::size_t> idx) {
        std::vector<int> batch_labels(idx.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
          batch_labels[i] = train_data.labels[idx[i]];
        return softmax_cross_entropy(logits, batch_labels, config.temperature);
      });
}

TrainHistory train_soft(Network& net, const math::Matrix& x,
                        const math::Matrix& soft_targets,
                        const TrainConfig& config,
                        const LabeledData* validation) {
  if (soft_targets.rows() != x.rows())
    throw std::invalid_argument("train_soft: target count mismatch");
  return run_training(
      net, x, x.rows(), config, validation,
      [&](const math::Matrix& logits, std::span<const std::size_t> idx) {
        math::Matrix batch_targets(idx.size(), soft_targets.cols());
        for (std::size_t i = 0; i < idx.size(); ++i)
          batch_targets.set_row(i, soft_targets.row(idx[i]));
        return soft_label_cross_entropy(logits, batch_targets,
                                        config.temperature);
      });
}

double accuracy(const Network& net, const math::Matrix& x,
                const std::vector<int>& labels) {
  if (labels.size() != x.rows())
    throw std::invalid_argument("accuracy: label count mismatch");
  if (labels.empty()) return 0.0;
  InferenceSession session(net, x.rows());
  const auto predictions = session.predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (predictions[i] == labels[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace mev::nn
