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
  const std::vector<double> losses = train(net, data, cfg);
  ASSERT_EQ(losses.size(), 15u);
  EXPECT_LT(losses.back(), losses.front());
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

TEST(Trainer, DeterministicGivenSeeds) {
  const LabeledData data = blobs(128, 9);
  TrainConfig cfg;
  cfg.epochs = 5;
  Network a = blob_net(42), b = blob_net(42);
  const auto ha = train(a, data, cfg);
  const auto hb = train(b, data, cfg);
  EXPECT_DOUBLE_EQ(ha.back(), hb.back());
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
  // Printed with %a by the build that still had the Optimizer interface,
  // Sgd and the training options nothing set; training with Adam must
  // still land on exactly these bits.
  constexpr float kAdamWeights[23] = {
      0x1.21ccep-2f,   0x1.b38eecp-3f,  -0x1.5efd56p+0f, 0x1.992538p-3f,
      -0x1.1d6d8cp-7f, -0x1.990e48p-2f, -0x1.c0b10ep-2f, -0x1.80d4ap-3f,
      0x1.9876acp-1f,  -0x1.f962aap-2f, 0x1.8cbd72p-4f,  -0x1.f2ff44p-3f,
      0x1.8e2298p-4f,  -0x1.84ba7p-3f,  0x1.a99174p-3f,  0x1.357e9p-4f,
      0x1.67bbc2p-2f,  -0x1.8baecap-2f, -0x1.069e82p-2f, 0x1.11ac92p-2f,
      -0x1.46daa4p-1f, -0x1.3b7792p-4f, 0x1.3b7796p-4f};

  TrainConfig adam;
  adam.epochs = 4;
  adam.batch_size = 8;
  adam.learning_rate = 0.05f;
  const std::vector<float> got_adam = pin_trained_params(adam);
  ASSERT_EQ(got_adam.size(), 23u);
  for (std::size_t i = 0; i < 23; ++i)
    EXPECT_EQ(got_adam[i], kAdamWeights[i]) << "adam parameter " << i;
}

}  // namespace
}  // namespace mev::nn
