#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace mev::nn {
namespace {

/// Linearly separable 2-D blobs.
LabeledData blobs(std::size_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  LabeledData data;
  data.x = math::Matrix(n, 2);
  data.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    const double cx = label == 0 ? -1.0 : 1.0;
    data.x(i, 0) = static_cast<float>(cx + 0.3 * rng.normal());
    data.x(i, 1) = static_cast<float>(cx + 0.3 * rng.normal());
    data.labels[i] = label;
  }
  return data;
}

Network blob_net(std::uint64_t seed = 7) {
  MlpConfig cfg;
  cfg.dims = {2, 16, 2};
  cfg.seed = seed;
  return make_mlp(cfg);
}

TEST(Trainer, LossDecreases) {
  Network net = blob_net();
  const LabeledData data = blobs(200, 1);
  TrainConfig cfg;
  cfg.epochs = 15;
  cfg.batch_size = 32;
  cfg.learning_rate = 0.01f;
  const TrainHistory history = train(net, data, cfg);
  ASSERT_EQ(history.epochs.size(), 15u);
  EXPECT_LT(history.epochs.back().train_loss,
            history.epochs.front().train_loss);
}

TEST(Trainer, LearnsSeparableData) {
  Network net = blob_net();
  const LabeledData data = blobs(400, 2);
  TrainConfig cfg;
  cfg.epochs = 25;
  cfg.batch_size = 32;
  cfg.learning_rate = 0.01f;
  train(net, data, cfg);
  EXPECT_GT(accuracy(net, data.x, data.labels), 0.95);
}

TEST(Trainer, SgdAlsoLearns) {
  Network net = blob_net();
  const LabeledData data = blobs(400, 3);
  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.optimizer = OptimizerKind::kSgd;
  cfg.learning_rate = 0.05f;
  train(net, data, cfg);
  EXPECT_GT(accuracy(net, data.x, data.labels), 0.9);
}

TEST(Trainer, ValidationAccuracyTracked) {
  Network net = blob_net();
  const LabeledData data = blobs(200, 4);
  const LabeledData val = blobs(100, 5);
  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 32;
  cfg.learning_rate = 0.01f;
  const TrainHistory history = train(net, data, cfg, &val);
  EXPECT_GT(history.best_val_accuracy, 0.8);
  EXPECT_GE(history.epochs.back().val_accuracy, 0.0);
}

TEST(Trainer, EarlyStoppingStopsEarly) {
  Network net = blob_net();
  const LabeledData data = blobs(300, 6);
  const LabeledData val = blobs(100, 7);
  TrainConfig cfg;
  cfg.epochs = 200;
  cfg.batch_size = 32;
  cfg.learning_rate = 0.01f;
  cfg.early_stopping_patience = 3;
  const TrainHistory history = train(net, data, cfg, &val);
  EXPECT_TRUE(history.early_stopped);
  EXPECT_LT(history.epochs.size(), 200u);
}

TEST(Trainer, OnEpochCallbackFires) {
  Network net = blob_net();
  const LabeledData data = blobs(64, 8);
  TrainConfig cfg;
  cfg.epochs = 3;
  std::size_t calls = 0;
  cfg.on_epoch = [&](std::size_t, double, double) { ++calls; };
  train(net, data, cfg);
  EXPECT_EQ(calls, 3u);
}

TEST(Trainer, DeterministicGivenSeeds) {
  const LabeledData data = blobs(128, 9);
  TrainConfig cfg;
  cfg.epochs = 5;
  Network a = blob_net(42), b = blob_net(42);
  const auto ha = train(a, data, cfg);
  const auto hb = train(b, data, cfg);
  EXPECT_DOUBLE_EQ(ha.epochs.back().train_loss, hb.epochs.back().train_loss);
}

TEST(Trainer, SoftLabelTrainingLearns) {
  Network net = blob_net(13);
  const LabeledData data = blobs(300, 10);
  math::Matrix soft(data.x.rows(), 2);
  for (std::size_t i = 0; i < data.x.rows(); ++i) {
    soft(i, data.labels[i]) = 0.9f;
    soft(i, 1 - data.labels[i]) = 0.1f;
  }
  TrainConfig cfg;
  cfg.epochs = 25;
  cfg.batch_size = 32;
  cfg.learning_rate = 0.01f;
  train_soft(net, data.x, soft, cfg);
  EXPECT_GT(accuracy(net, data.x, data.labels), 0.9);
}

TEST(Trainer, InvalidInputsThrow) {
  Network net = blob_net();
  LabeledData data = blobs(10, 11);
  data.labels.pop_back();
  TrainConfig cfg;
  EXPECT_THROW(train(net, data, cfg), std::invalid_argument);

  LabeledData empty;
  EXPECT_THROW(train(net, empty, cfg), std::invalid_argument);

  LabeledData ok = blobs(10, 12);
  cfg.batch_size = 0;
  EXPECT_THROW(train(net, ok, cfg), std::invalid_argument);
}

TEST(Trainer, OutOfRangeLabelsThrow) {
  Network net = blob_net();
  LabeledData data = blobs(10, 14);
  data.labels[3] = 7;  // only classes 0 and 1 exist
  TrainConfig cfg;
  EXPECT_THROW(train(net, data, cfg), std::invalid_argument);
  data.labels[3] = -1;
  EXPECT_THROW(train(net, data, cfg), std::invalid_argument);
}

TEST(Trainer, DivergedTrainingThrows) {
  Network net = blob_net();
  LabeledData data = blobs(40, 15);
  // A non-finite activation poisons the loss; the trainer must fail loudly
  // instead of silently returning NaN weights.
  data.x(0, 0) = std::numeric_limits<float>::infinity();
  TrainConfig cfg;
  cfg.epochs = 5;
  EXPECT_THROW(train(net, data, cfg), std::runtime_error);
}

TEST(Trainer, AccuracyChecksSizes) {
  Network net = blob_net();
  const LabeledData data = blobs(10, 13);
  std::vector<int> wrong(5, 0);
  EXPECT_THROW(accuracy(net, data.x, wrong), std::invalid_argument);
}

/// 22 rows of 4 features: at batch 8 the last batch of an epoch is short.
LabeledData pin_set() {
  math::Rng rng(12);
  LabeledData d;
  d.x = math::Matrix(22, 4);
  d.labels.resize(22);
  for (std::size_t i = 0; i < 22; ++i) {
    for (std::size_t j = 0; j < 4; ++j)
      d.x(i, j) = static_cast<float>(rng.normal());
    d.labels[i] = d.x(i, 0) + d.x(i, 1) > d.x(i, 2) ? 1 : 0;
  }
  return d;
}

/// Trains MLP 4-3-2 (seed 11) on pin_set() and returns every parameter,
/// layer by layer in param_values() order.
std::vector<float> pin_trained_params(const TrainConfig& cfg) {
  MlpConfig mc;
  mc.dims = {4, 3, 2};
  mc.seed = 11;
  Network net = make_mlp(mc);
  train(net, pin_set(), cfg);
  std::vector<float> out;
  for (std::size_t l = 0; l < net.num_layers(); ++l)
    for (const math::Matrix* p : net.layer(l).param_values())
      out.insert(out.end(), p->data(), p->data() + p->size());
  return out;
}

TEST(Trainer, TrainedWeightsMatchParentBitExact) {
  // Printed with %a by the build before the training sweep stopped
  // forming layer 0's input gradient and Adam's update was vectorized;
  // training must still land on exactly these bits.
  constexpr float kAdamWeights[23] = {
      0x1.1cd0d2p-2f,  0x1.a957cap-3f,  -0x1.f8453cp-1f, 0x1.993d4p-3f,
      -0x1.6501d8p-9f, -0x1.7d631p-2f,  -0x1.bdbd3ep-2f, -0x1.7dd41ep-3f,
      0x1.3bafep-1f,   -0x1.ec0032p-2f, 0x1.915a1p-4f,   -0x1.d0d478p-3f,
      0x1.80e2f6p-4f,  -0x1.86222cp-3f, 0x1.c3cd06p-3f,  0x1.37ed36p-4f,
      0x1.5ee442p-2f,  -0x1.8148bcp-2f, -0x1.0419aep-2f, 0x1.164de8p-2f,
      -0x1.474ab4p-1f, -0x1.125992p-4f, 0x1.125998p-4f};
  constexpr float kSgdWeights[23] = {
      0x1.69a22p-6f,   0x1.0ba892p-5f,  -0x1.22123ep+0f, 0x1.50ab38p-2f,
      0x1.209a44p-4f,  -0x1.47e698p-2f, -0x1.59d93cp-1f, -0x1.4a1f52p-1f,
      0x1.2e6076p-1f,  -0x1.a124ep-2f,  0x1.2cbd9p-2f,   -0x1.8b2134p-3f,
      -0x1.49ff0ep-4f, -0x1.b37f2cp-3f, 0x1.4750bep-4f,  0x1.ac3056p-3f,
      0x1.b92fb6p-3f,  -0x1.844422p-2f, -0x1.0a6456p-2f, 0x1.427668p-1f,
      -0x1.ff6d82p-1f, -0x1.0ec06ap-2f, 0x1.0ec06cp-2f};

  TrainConfig adam;
  adam.epochs = 4;
  adam.batch_size = 8;
  adam.learning_rate = 0.05f;
  adam.weight_decay = 0.01f;
  adam.optimizer = OptimizerKind::kAdam;
  const std::vector<float> got_adam = pin_trained_params(adam);
  ASSERT_EQ(got_adam.size(), 23u);
  for (std::size_t i = 0; i < 23; ++i)
    EXPECT_EQ(got_adam[i], kAdamWeights[i]) << "adam parameter " << i;

  TrainConfig sgd;
  sgd.epochs = 4;
  sgd.batch_size = 8;
  sgd.learning_rate = 0.1f;
  sgd.momentum = 0.9f;
  sgd.weight_decay = 0.001f;
  sgd.optimizer = OptimizerKind::kSgd;
  const std::vector<float> got_sgd = pin_trained_params(sgd);
  ASSERT_EQ(got_sgd.size(), 23u);
  for (std::size_t i = 0; i < 23; ++i)
    EXPECT_EQ(got_sgd[i], kSgdWeights[i]) << "sgd parameter " << i;
}

}  // namespace
}  // namespace mev::nn
