#include "nn/layer.hpp"

#include <cmath>
#include <stdexcept>

namespace mev::nn {

DenseLayer::DenseLayer(std::size_t in, std::size_t out, Activation act,
                       math::Rng& rng)
    : weights_(in, out), bias_(1, out), activation_(act) {
  if (in == 0 || out == 0)
    throw std::invalid_argument("DenseLayer: zero dimension");
  // He initialization for relu-family activations, Glorot otherwise.
  const bool relu_family =
      act == Activation::kRelu || act == Activation::kLeakyRelu;
  const double scale = relu_family
                           ? std::sqrt(2.0 / static_cast<double>(in))
                           : std::sqrt(2.0 / static_cast<double>(in + out));
  for (std::size_t i = 0; i < weights_.rows(); ++i)
    for (std::size_t j = 0; j < weights_.cols(); ++j)
      weights_(i, j) = static_cast<float>(rng.normal(0.0, scale));
}

DenseLayer::DenseLayer(math::Matrix weights, math::Matrix bias, Activation act)
    : weights_(std::move(weights)), bias_(std::move(bias)), activation_(act) {
  if (bias_.rows() != 1 || bias_.cols() != weights_.cols())
    throw std::invalid_argument("DenseLayer: bias/weight shape mismatch");
}

void DenseLayer::forward(const math::Matrix& x, LayerWorkspace& ws,
                         bool /*training*/) const {
  if (x.cols() != weights_.rows())
    throw std::invalid_argument("DenseLayer::forward: dimension mismatch");
  math::matmul_into(x, weights_, ws.pre_activation);
  math::add_row_broadcast(ws.pre_activation, bias_.row(0));
  ws.output = ws.pre_activation;
  apply_activation(activation_, ws.output);
}

void DenseLayer::backward(math::Matrix& grad_output, const math::Matrix& input,
                          LayerWorkspace& ws,
                          bool accumulate_param_grads) const {
  if (!grad_output.same_shape(ws.output))
    throw std::invalid_argument("DenseLayer::backward: shape mismatch");
  // grad_output becomes dLoss/dPreActivation in place.
  apply_activation_grad(activation_, ws.pre_activation, ws.output, grad_output);

  if (accumulate_param_grads) {
    math::matmul_at_b_into(input, grad_output, ws.param_grads[0],
                           /*accumulate=*/true);
    math::add_column_sums(grad_output, ws.param_grads[1]);
  }

  // dLoss/dInput = grad_output * Wᵀ against the packed Wᵀ: the same
  // k-ordered sum from +0 as the dot-product form, so the same bits.
  if (ws.weights_t.empty()) math::transpose_into(weights_, ws.weights_t);
  math::matmul_into(grad_output, ws.weights_t, ws.grad_input);
}

void DenseLayer::init_workspace(LayerWorkspace& ws) const {
  ws.param_grads.clear();
  ws.param_grads.emplace_back(weights_.rows(), weights_.cols());
  ws.param_grads.emplace_back(1, bias_.cols());
}

std::vector<math::Matrix*> DenseLayer::param_values() {
  return {&weights_, &bias_};
}

std::vector<const math::Matrix*> DenseLayer::param_values() const {
  return {&weights_, &bias_};
}

std::unique_ptr<Layer> DenseLayer::clone() const {
  return std::make_unique<DenseLayer>(weights_, bias_, activation_);
}

DropoutLayer::DropoutLayer(std::size_t dim, float rate, std::uint64_t seed)
    : dim_(dim), rate_(rate), seed_(seed), rng_(seed) {
  if (rate < 0.0f || rate >= 1.0f)
    throw std::invalid_argument("DropoutLayer: rate must be in [0, 1)");
}

void DropoutLayer::forward(const math::Matrix& x, LayerWorkspace& ws,
                           bool training) const {
  if (x.cols() != dim_)
    throw std::invalid_argument("DropoutLayer::forward: dimension mismatch");
  if (!training || rate_ == 0.0f) {
    ws.mask.resize(0, 0);  // flags the pass as inference for backward
    ws.output = x;
    return;
  }
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  ws.mask.resize(x.rows(), x.cols());
  ws.output = x;
  for (std::size_t i = 0; i < ws.mask.size(); ++i) {
    const float m = rng_.bernoulli(keep) ? scale : 0.0f;
    ws.mask.data()[i] = m;
    ws.output.data()[i] *= m;
  }
}

void DropoutLayer::backward(math::Matrix& grad_output,
                            const math::Matrix& /*input*/, LayerWorkspace& ws,
                            bool /*accumulate_param_grads*/) const {
  ws.grad_input = grad_output;
  if (!ws.mask.empty()) ws.grad_input.hadamard(ws.mask);
}

std::unique_ptr<Layer> DropoutLayer::clone() const {
  return std::make_unique<DropoutLayer>(dim_, rate_, seed_);
}

}  // namespace mev::nn
