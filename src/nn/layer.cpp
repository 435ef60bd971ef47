#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/gemm.hpp"
#include "math/parallel.hpp"

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
                         std::size_t begin, std::size_t end) const {
  math::matmul_rows(x, weights_, ws.pre_activation, begin, end);
  math::add_row_broadcast(ws.pre_activation, bias_.row(0), begin, end);
  const auto z = ws.pre_activation.row_range(begin, end);
  const auto y = ws.output.row_range(begin, end);
  std::copy(z.begin(), z.end(), y.begin());
  apply_activation(activation_, y);
}

void DenseLayer::backward_rows(math::Matrix& grad_output, LayerWorkspace& ws,
                               bool input_grad, std::size_t begin,
                               std::size_t end) const {
  apply_activation_grad(activation_, ws.pre_activation.row_range(begin, end),
                        ws.output.row_range(begin, end),
                        grad_output.row_range(begin, end));
  // dLoss/dInput = dPre * Wᵀ against the packed Wᵀ: the same k-ordered sum
  // from +0 as the dot-product form, so the same bits.
  if (input_grad)
    math::matmul_rows(grad_output, ws.weights_t, ws.grad_input, begin, end);
}

void DenseLayer::pack_weights(LayerWorkspace& ws) const {
  if (ws.weights_t.empty()) math::transpose_into(weights_, ws.weights_t);
}

void DenseLayer::add_param_grads(const math::Matrix& input,
                                 const math::Matrix& grad_pre,
                                 LayerWorkspace& ws, std::size_t part,
                                 std::size_t parts) const {
  const math::Share features =
      math::share_of(input_dim(), math::gemm::kBlockRows, part, parts);
  math::add_matmul_at_b_rows(input, grad_pre, ws.param_grads[0],
                             features.begin, features.end);
  const math::Share columns =
      math::share_of(output_dim(), math::kFloatsPerLine, part, parts);
  math::add_column_sums(grad_pre, ws.param_grads[1], columns.begin,
                        columns.end);
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

}  // namespace mev::nn
