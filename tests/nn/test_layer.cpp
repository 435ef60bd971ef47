#include "nn/layer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mev::nn {
namespace {

/// Sizes `ws` for `x` and runs the forward over every row on this thread,
/// as a session pass with a team of one does.
void forward_all(const DenseLayer& layer, const math::Matrix& x,
                 LayerWorkspace& ws) {
  ws.pre_activation.resize(x.rows(), layer.output_dim());
  ws.output.resize(x.rows(), layer.output_dim());
  layer.forward(x, ws, 0, x.rows());
}

/// The backward over every row on this thread, as a session sweep with a
/// team of one does: dLoss/dInput when `input_grad`, the parameter
/// gradients when `params`.
void backward_all(const DenseLayer& layer, math::Matrix& upstream,
                  const math::Matrix& x, LayerWorkspace& ws, bool input_grad,
                  bool params) {
  if (input_grad) {
    layer.pack_weights(ws);
    ws.grad_input.resize(x.rows(), layer.input_dim());
  }
  layer.backward_rows(upstream, ws, input_grad, 0, x.rows());
  if (params) layer.add_param_grads(x, upstream, ws, 0, 1);
}

/// One-shot forward through a fresh workspace (the session owns workspaces
/// in production; tests drive layers directly).
math::Matrix forward_of(const DenseLayer& layer, const math::Matrix& x) {
  LayerWorkspace ws;
  layer.init_workspace(ws);
  forward_all(layer, x, ws);
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
  forward_all(layer, x, a);
  forward_all(layer, x, b);
  EXPECT_EQ(a.output, b.output);
}

TEST(DenseLayer, DimensionMismatchThrows) {
  math::Rng rng(1);
  DenseLayer layer(3, 2, Activation::kRelu, rng);
  LayerWorkspace ws;
  layer.init_workspace(ws);
  EXPECT_THROW(forward_all(layer, math::Matrix(1, 4), ws),
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
  forward_all(layer, x, ws);
  math::Matrix upstream(2, 3, 1.0f);
  backward_all(layer, upstream, x, ws, true, true);

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
  forward_all(layer, x, ws);
  math::Matrix upstream(1, 2, 1.0f);
  backward_all(layer, upstream, x, ws, true, false);

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
  forward_all(layer, x, ws);
  math::Matrix upstream(1, 2, 1.0f);
  backward_all(layer, upstream, x, ws, true, true);
  const float once = ws.param_grads[0].data()[0];
  upstream = math::Matrix(1, 2, 1.0f);  // backward clobbers its input
  backward_all(layer, upstream, x, ws, true, true);
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
  forward_all(layer, x, ws);
  math::Matrix upstream(1, 2, 1.0f);
  backward_all(layer, upstream, x, ws, true, false);
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
  forward_all(layer, x, ws);
  EXPECT_TRUE(ws.weights_t.empty()) << "forward must not build the pack";
  math::Matrix upstream(1, 3, 1.0f);
  backward_all(layer, upstream, x, ws, true, false);
  EXPECT_EQ(ws.weights_t, layer.weights().transposed());
  // An emptied pack is rebuilt from the current weights.
  layer.mutable_weights()(0, 0) += 1.0f;
  ws.weights_t.resize(0, 0);
  upstream = math::Matrix(1, 3, 1.0f);
  backward_all(layer, upstream, x, ws, true, false);
  EXPECT_EQ(ws.weights_t, layer.weights().transposed());
}

TEST(DenseLayer, ParamsOnlyBackwardSkipsTheInputGradient) {
  // A parameters-only backward (layer 0 of the training sweep)
  // accumulates the same parameter gradients as one that also forms
  // dLoss/dInput, and neither packs Wᵀ nor writes dLoss/dInput.
  math::Rng rng(10);
  DenseLayer layer(5, 3, Activation::kTanh, rng);
  const math::Matrix x{{1, -2, 3, -4, 5}, {0.5f, 0.25f, -1, 2, 0}};
  LayerWorkspace both, params_only;
  for (LayerWorkspace* ws : {&both, &params_only}) {
    layer.init_workspace(*ws);
    forward_all(layer, x, *ws);
  }
  math::Matrix upstream(2, 3, 0.75f);
  backward_all(layer, upstream, x, both, true, true);
  upstream = math::Matrix(2, 3, 0.75f);
  backward_all(layer, upstream, x, params_only, false, true);
  EXPECT_EQ(params_only.param_grads[0], both.param_grads[0]);
  EXPECT_EQ(params_only.param_grads[1], both.param_grads[1]);
  EXPECT_TRUE(params_only.weights_t.empty());
  EXPECT_TRUE(params_only.grad_input.empty());
  EXPECT_EQ(both.grad_input.cols(), 5u);
}

TEST(DenseLayer, ParamGradSharesAddEveryElementOnce) {
  // A training sweep splits the parameter gradients across its team:
  // shares 0..parts-1 must add exactly what one share adds, bit for bit,
  // however the 9 input features and 6 output columns are cut.
  math::Rng rng(12);
  DenseLayer layer(9, 6, Activation::kRelu, rng);
  math::Matrix x(7, 9);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = i % 4 == 1 ? 0.0f : static_cast<float>(rng.normal());
  LayerWorkspace ws;
  layer.init_workspace(ws);
  forward_all(layer, x, ws);
  math::Matrix upstream(7, 6);
  for (std::size_t i = 0; i < upstream.size(); ++i)
    upstream.data()[i] = static_cast<float>(rng.normal());
  layer.backward_rows(upstream, ws, false, 0, 7);
  layer.add_param_grads(x, upstream, ws, 0, 1);
  const std::vector<math::Matrix> whole = ws.param_grads;
  for (std::size_t parts : {2u, 3u, 5u}) {
    for (auto& g : ws.param_grads) g.fill(0.0f);
    for (std::size_t part = parts; part-- > 0;)  // any order
      layer.add_param_grads(x, upstream, ws, part, parts);
    EXPECT_EQ(ws.param_grads[0], whole[0]) << parts << " parts";
    EXPECT_EQ(ws.param_grads[1], whole[1]) << parts << " parts";
  }
}

}  // namespace
}  // namespace mev::nn
