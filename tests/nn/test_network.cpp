#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "math/linalg.hpp"
#include "nn/session.hpp"

namespace mev::nn {
namespace {

Network small_net(std::uint64_t seed = 3) {
  MlpConfig cfg;
  cfg.dims = {4, 8, 6, 2};
  cfg.seed = seed;
  return make_mlp(cfg);
}

math::Matrix random_input(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix x(rows, cols);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.uniform());
  return x;
}

TEST(Network, MakeMlpShapes) {
  Network net = small_net();
  EXPECT_EQ(net.input_dim(), 4u);
  EXPECT_EQ(net.output_dim(), 2u);
  EXPECT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.architecture_string(), "4-8-6-2");
}

TEST(Network, MakeMlpRequiresTwoDims) {
  MlpConfig cfg;
  cfg.dims = {4};
  EXPECT_THROW(make_mlp(cfg), std::invalid_argument);
}

TEST(Network, MakeMlpWithDropoutAddsLayers) {
  MlpConfig cfg;
  cfg.dims = {4, 8, 2};
  cfg.dropout = 0.3f;
  Network net = make_mlp(cfg);
  EXPECT_EQ(net.num_layers(), 3u);  // dense, dropout, dense
  EXPECT_EQ(net.layer(1).name(), "dropout");
}

TEST(Network, ForwardShapeAndDeterminism) {
  Network net = small_net();
  InferenceSession session(net);
  const math::Matrix x = random_input(5, 4, 9);
  const math::Matrix a = session.forward(x);
  const math::Matrix b = session.forward(x);
  EXPECT_EQ(a.rows(), 5u);
  EXPECT_EQ(a.cols(), 2u);
  EXPECT_EQ(a, b);
}

TEST(Network, PredictProbaRowsSumToOne) {
  Network net = small_net();
  InferenceSession session(net);
  const math::Matrix& p = session.predict_proba(random_input(3, 4, 10));
  for (std::size_t r = 0; r < 3; ++r)
    EXPECT_NEAR(p(r, 0) + p(r, 1), 1.0, 1e-5);
}

TEST(Network, PredictMatchesArgmaxOfProba) {
  Network net = small_net();
  InferenceSession session(net);
  const math::Matrix x = random_input(6, 4, 11);
  const math::Matrix p = session.predict_proba(x);
  const auto labels = session.predict(x);
  for (std::size_t r = 0; r < 6; ++r)
    EXPECT_EQ(labels[r], static_cast<int>(math::argmax(p.row(r))));
}

TEST(Network, AddLayerDimensionMismatchThrows) {
  Network net;
  math::Rng rng(1);
  net.add(std::make_unique<DenseLayer>(3, 5, Activation::kRelu, rng));
  EXPECT_THROW(
      net.add(std::make_unique<DenseLayer>(4, 2, Activation::kRelu, rng)),
      std::invalid_argument);
  EXPECT_THROW(net.add(nullptr), std::invalid_argument);
}

TEST(Network, EmptyNetworkThrows) {
  Network net;
  EXPECT_THROW(net.input_dim(), std::logic_error);
}

TEST(Network, InputGradientMatchesFiniteDifference) {
  Network net = small_net(21);
  const math::Matrix x = random_input(2, 4, 22);
  InferenceSession session(net);
  const math::Matrix grad = session.input_gradient(x, 0);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      math::Matrix xp = x, xm = x;
      xp(i, j) += eps;
      xm(i, j) -= eps;
      const double p_plus = session.predict_proba(xp)(i, 0);
      const double p_minus = session.predict_proba(xm)(i, 0);
      const double fd = (p_plus - p_minus) / (2 * eps);
      EXPECT_NEAR(grad(i, j), fd, 5e-3);
    }
  }
}

TEST(Network, InputGradientsAllSumToZeroAcrossClasses) {
  // Softmax probabilities sum to 1, so their input gradients sum to 0.
  Network net = small_net(31);
  const math::Matrix x = random_input(3, 4, 32);
  InferenceSession session(net);
  const auto grads = session.input_gradients_all(x);
  ASSERT_EQ(grads.size(), 2u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(grads[0](i, j) + grads[1](i, j), 0.0f, 1e-5);
}

TEST(Network, InputGradientClassOutOfRangeThrows) {
  Network net = small_net();
  InferenceSession session(net);
  EXPECT_THROW(session.input_gradient(random_input(1, 4, 1), 2),
               std::invalid_argument);
  EXPECT_THROW(session.input_gradient(random_input(1, 4, 1), -1),
               std::invalid_argument);
}

TEST(Network, InputGradientLeavesParamGradsZero) {
  Network net = small_net();
  InferenceSession session(net);
  session.input_gradient(random_input(2, 4, 33), 0);
  for (const auto& p : session.bind_params(net))
    for (std::size_t i = 0; i < p.grad->size(); ++i)
      EXPECT_EQ(p.grad->data()[i], 0.0f);
}

TEST(Network, NumParameters) {
  Network net = small_net();
  // (4*8 + 8) + (8*6 + 6) + (6*2 + 2) = 40 + 54 + 14
  EXPECT_EQ(net.num_parameters(), 40u + 54u + 14u);
}

TEST(Network, CopyIsDeep) {
  Network net = small_net();
  Network copy = net;
  InferenceSession net_session(net);
  InferenceSession copy_session(copy);
  const math::Matrix x = random_input(1, 4, 41);
  EXPECT_EQ(net_session.forward(x), copy_session.forward(x));
  // Mutate the copy's first layer weight.
  auto params = copy_session.bind_params(copy);
  params[0].value->data()[0] += 1.0f;
  EXPECT_NE(net_session.forward(x), copy_session.forward(x));
}

TEST(Network, SaveLoadRoundTrip) {
  MlpConfig cfg;
  cfg.dims = {4, 8, 2};
  cfg.dropout = 0.25f;
  cfg.seed = 55;
  Network net = make_mlp(cfg);
  std::stringstream buffer;
  save_network(net, buffer);
  Network loaded = load_network(buffer);
  EXPECT_EQ(loaded.architecture_string(), net.architecture_string());
  EXPECT_EQ(loaded.num_layers(), net.num_layers());
  const math::Matrix x = random_input(3, 4, 56);
  InferenceSession net_session(net);
  InferenceSession loaded_session(loaded);
  EXPECT_EQ(net_session.forward(x), loaded_session.forward(x));
}

TEST(Network, LoadRejectsGarbage) {
  std::stringstream buffer("not a network");
  EXPECT_THROW(load_network(buffer), std::runtime_error);
}

TEST(Network, LoadRejectsTruncated) {
  Network net = small_net();
  std::stringstream buffer;
  save_network(net, buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_THROW(load_network(truncated), std::runtime_error);
}

}  // namespace
}  // namespace mev::nn
