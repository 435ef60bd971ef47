#include "nn/layer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mev::nn {
namespace {

/// One-shot forward through a fresh workspace (the session owns workspaces
/// in production; tests drive layers directly).
math::Matrix forward_of(const Layer& layer, const math::Matrix& x,
                        bool training = false) {
  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, training);
  return ws.output;
}

TEST(DenseLayer, ForwardKnownValues) {
  // y = x * W + b with identity activation.
  math::Matrix w{{1, 0}, {0, 2}};
  math::Matrix b{{10, 20}};
  DenseLayer layer(std::move(w), std::move(b), Activation::kIdentity);
  const math::Matrix y = forward_of(layer, math::Matrix{{3, 4}});
  EXPECT_EQ(y(0, 0), 13.0f);
  EXPECT_EQ(y(0, 1), 28.0f);
}

TEST(DenseLayer, ForwardAppliesActivation) {
  math::Matrix w{{1}, {1}};
  math::Matrix b{{-10}};
  DenseLayer layer(std::move(w), std::move(b), Activation::kRelu);
  EXPECT_EQ(forward_of(layer, math::Matrix{{1, 2}})(0, 0), 0.0f);
}

TEST(DenseLayer, ForwardIsConstOnLayer) {
  // The layer is read-only during forward: two workspaces on one layer
  // produce identical results in either order.
  math::Rng rng(7);
  const DenseLayer layer(3, 2, Activation::kTanh, rng);
  const math::Matrix x{{0.5f, -1.0f, 2.0f}};
  LayerWorkspace a, b;
  layer.init_workspace(a);
  layer.init_workspace(b);
  layer.forward(x, a, false);
  layer.forward(x, b, false);
  EXPECT_EQ(a.output, b.output);
}

TEST(DenseLayer, DimensionMismatchThrows) {
  math::Rng rng(1);
  DenseLayer layer(3, 2, Activation::kRelu, rng);
  LayerWorkspace ws;
  layer.init_workspace(ws);
  EXPECT_THROW(layer.forward(math::Matrix(1, 4), ws, false),
               std::invalid_argument);
}

TEST(DenseLayer, BiasShapeMismatchThrows) {
  EXPECT_THROW(DenseLayer(math::Matrix(2, 3), math::Matrix(1, 2),
                          Activation::kIdentity),
               std::invalid_argument);
}

TEST(DenseLayer, ZeroDimensionThrows) {
  math::Rng rng(1);
  EXPECT_THROW(DenseLayer(0, 2, Activation::kRelu, rng),
               std::invalid_argument);
}

TEST(DenseLayer, ParameterGradientsMatchFiniteDifference) {
  math::Rng rng(3);
  DenseLayer layer(4, 3, Activation::kTanh, rng);
  math::Matrix x(2, 4);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.normal());

  // Loss = sum of outputs; upstream gradient of ones.
  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, false);
  math::Matrix upstream(2, 3, 1.0f);
  layer.backward(upstream, x, ws, /*accumulate_param_grads=*/true);

  auto values = layer.param_values();
  ASSERT_EQ(values.size(), 2u);
  ASSERT_EQ(ws.param_grads.size(), 2u);

  const float eps = 1e-2f;
  for (std::size_t k = 0; k < values.size(); ++k) {
    math::Matrix* value = values[k];
    for (std::size_t i = 0; i < std::min<std::size_t>(value->size(), 6);
         ++i) {
      const float original = value->data()[i];
      value->data()[i] = original + eps;
      const double up = forward_of(layer, x).sum();
      value->data()[i] = original - eps;
      const double down = forward_of(layer, x).sum();
      value->data()[i] = original;
      const double fd = (up - down) / (2 * eps);
      EXPECT_NEAR(ws.param_grads[k].data()[i], fd, 2e-2);
    }
  }
}

TEST(DenseLayer, InputGradientMatchesFiniteDifference) {
  math::Rng rng(4);
  DenseLayer layer(3, 2, Activation::kSigmoid, rng);
  math::Matrix x(1, 3);
  for (std::size_t i = 0; i < 3; ++i)
    x.data()[i] = static_cast<float>(rng.normal());

  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, false);
  math::Matrix upstream(1, 2, 1.0f);
  layer.backward(upstream, x, ws, /*accumulate_param_grads=*/false);

  const float eps = 1e-2f;
  for (std::size_t j = 0; j < 3; ++j) {
    math::Matrix xp = x, xm = x;
    xp(0, j) += eps;
    xm(0, j) -= eps;
    const double fd =
        (forward_of(layer, xp).sum() - forward_of(layer, xm).sum()) /
        (2 * eps);
    EXPECT_NEAR(ws.grad_input(0, j), fd, 2e-2);
  }
}

TEST(DenseLayer, GradientsAccumulateAcrossBackwards) {
  math::Rng rng(5);
  DenseLayer layer(2, 2, Activation::kIdentity, rng);
  const math::Matrix x{{1, 1}};
  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, false);
  math::Matrix upstream(1, 2, 1.0f);
  layer.backward(upstream, x, ws, true);
  const float once = ws.param_grads[0].data()[0];
  upstream = math::Matrix(1, 2, 1.0f);  // backward clobbers its input
  layer.backward(upstream, x, ws, true);
  EXPECT_NEAR(ws.param_grads[0].data()[0], 2 * once, 1e-5);
  ws.param_grads[0].fill(0.0f);
  EXPECT_EQ(ws.param_grads[0].data()[0], 0.0f);
}

TEST(DenseLayer, SkippingParamGradsLeavesAccumulatorsZero) {
  // The attack-gradient fast path must not touch the accumulators.
  math::Rng rng(8);
  DenseLayer layer(3, 2, Activation::kRelu, rng);
  const math::Matrix x{{1, 2, 3}};
  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, false);
  math::Matrix upstream(1, 2, 1.0f);
  layer.backward(upstream, x, ws, /*accumulate_param_grads=*/false);
  for (const auto& g : ws.param_grads)
    for (std::size_t i = 0; i < g.size(); ++i)
      EXPECT_EQ(g.data()[i], 0.0f);
  // The input gradient is still produced.
  EXPECT_EQ(ws.grad_input.rows(), 1u);
  EXPECT_EQ(ws.grad_input.cols(), 3u);
}

TEST(DenseLayer, BackwardPacksTransposedWeightsLazily) {
  math::Rng rng(9);
  DenseLayer layer(5, 3, Activation::kRelu, rng);
  const math::Matrix x{{1, 2, 3, 4, 5}};
  LayerWorkspace ws;
  layer.init_workspace(ws);
  layer.forward(x, ws, false);
  EXPECT_TRUE(ws.weights_t.empty()) << "forward must not build the pack";
  math::Matrix upstream(1, 3, 1.0f);
  layer.backward(upstream, x, ws, /*accumulate_param_grads=*/false);
  EXPECT_EQ(ws.weights_t, layer.weights().transposed());
  // An emptied pack is rebuilt from the current weights.
  layer.mutable_weights()(0, 0) += 1.0f;
  ws.weights_t.resize(0, 0);
  upstream = math::Matrix(1, 3, 1.0f);
  layer.backward(upstream, x, ws, /*accumulate_param_grads=*/false);
  EXPECT_EQ(ws.weights_t, layer.weights().transposed());
}

TEST(DenseLayer, CloneIsDeepCopy) {
  math::Rng rng(6);
  DenseLayer layer(2, 2, Activation::kRelu, rng);
  auto clone = layer.clone();
  auto* dense = dynamic_cast<DenseLayer*>(clone.get());
  ASSERT_NE(dense, nullptr);
  EXPECT_EQ(dense->weights(), layer.weights());
  dense->mutable_weights()(0, 0) += 1.0f;
  EXPECT_NE(dense->weights(), layer.weights());
}

TEST(DropoutLayer, InferenceModePassesThrough) {
  DropoutLayer drop(3, 0.5f, 1);
  const math::Matrix x{{1, 2, 3}};
  EXPECT_EQ(forward_of(drop, x, false), x);
}

TEST(DropoutLayer, TrainingZeroesRoughlyRateFraction) {
  DropoutLayer drop(1000, 0.4f, 2);
  const math::Matrix x(1, 1000, 1.0f);
  const math::Matrix y = forward_of(drop, x, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (y.data()[i] == 0.0f) ++zeros;
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.4, 0.06);
  // Kept units are scaled by 1/(1-rate).
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y.data()[i] != 0.0f) {
      EXPECT_NEAR(y.data()[i], 1.0f / 0.6f, 1e-5);
    }
  }
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  DropoutLayer drop(100, 0.5f, 3);
  const math::Matrix x(1, 100, 1.0f);
  LayerWorkspace ws;
  drop.init_workspace(ws);
  drop.forward(x, ws, true);
  const math::Matrix y = ws.output;
  math::Matrix upstream(1, 100, 1.0f);
  drop.backward(upstream, x, ws, false);
  for (std::size_t i = 0; i < 100; ++i) {
    if (y.data()[i] == 0.0f) {
      EXPECT_EQ(ws.grad_input.data()[i], 0.0f);
    } else {
      EXPECT_GT(ws.grad_input.data()[i], 0.0f);
    }
  }
}

TEST(DropoutLayer, InferenceBackwardIsIdentity) {
  DropoutLayer drop(4, 0.5f, 5);
  const math::Matrix x{{1, 2, 3, 4}};
  LayerWorkspace ws;
  drop.init_workspace(ws);
  drop.forward(x, ws, false);  // inference: no mask recorded
  math::Matrix upstream{{5, 6, 7, 8}};
  drop.backward(upstream, x, ws, false);
  EXPECT_EQ(ws.grad_input, (math::Matrix{{5, 6, 7, 8}}));
}

TEST(DropoutLayer, InvalidRateThrows) {
  EXPECT_THROW(DropoutLayer(3, 1.0f, 1), std::invalid_argument);
  EXPECT_THROW(DropoutLayer(3, -0.1f, 1), std::invalid_argument);
}

}  // namespace
}  // namespace mev::nn
