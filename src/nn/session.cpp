#include "nn/session.hpp"

#include <algorithm>
#include <stdexcept>

#include "math/gemm.hpp"
#include "math/linalg.hpp"
#include "math/parallel.hpp"
#include "nn/network.hpp"

namespace mev::nn {

namespace {

/// A pass opens a parallel region only when it has more than one 4-row
/// block and more than this many multiply-adds (rows x the sum of every
/// layer's in x out), so a 1-row scan never opens one.
constexpr std::size_t kMinPassWork = std::size_t{1} << 16;

/// Moves rows keep[k] of `m` to row k and drops the rest. `keep` is
/// strictly ascending, so keep[k] >= k and each copy reads a row no
/// earlier copy has written.
void keep_rows(math::Matrix& m, std::span<const std::size_t> keep) {
  const std::size_t cols = m.cols();
  float* data = m.data();
  for (std::size_t k = 0; k < keep.size(); ++k)
    if (keep[k] != k)
      std::copy_n(data + keep[k] * cols, cols, data + k * cols);
  m.resize(keep.size(), cols);
}

}  // namespace

InferenceSession::InferenceSession(const Network& net, std::size_t max_batch)
    : net_(&net) {
  if (net.num_layers() == 0)
    throw std::invalid_argument("InferenceSession: empty network");
  ws_.resize(net.num_layers());
  for (std::size_t i = 0; i < ws_.size(); ++i)
    macs_per_row_ += net.layer(i).input_dim() * net.layer(i).output_dim();
  if (max_batch > 0) {
    input_.reserve(max_batch, net.input_dim());
    probs_.reserve(max_batch, net.output_dim());
    grad_logits_.reserve(max_batch, net.output_dim());
    labels_.reserve(max_batch);
    for (std::size_t i = 0; i < ws_.size(); ++i) {
      const DenseLayer& layer = net.layer(i);
      ws_[i].pre_activation.reserve(max_batch, layer.output_dim());
      ws_[i].output.reserve(max_batch, layer.output_dim());
      ws_[i].grad_input.reserve(max_batch, layer.input_dim());
    }
  }
}

const math::Matrix& InferenceSession::layer_input(
    std::size_t layer_index) const {
  return layer_index == 0 ? input_ : ws_[layer_index - 1].output;
}

bool InferenceSession::split(std::size_t rows) const {
  return rows > math::gemm::kBlockRows && rows * macs_per_row_ > kMinPassWork;
}

const math::Matrix& InferenceSession::forward(const math::Matrix& x) {
  return run_forward(x, nullptr, x.rows());
}

const math::Matrix& InferenceSession::forward(
    const math::Matrix& x, std::span<const std::size_t> rows) {
  for (const std::size_t r : rows)
    if (r >= x.rows())
      throw std::out_of_range("InferenceSession::forward: row out of range");
  return run_forward(x, rows.data(), rows.size());
}

const math::Matrix& InferenceSession::run_forward(const math::Matrix& x,
                                                  const std::size_t* rows,
                                                  std::size_t n) {
  const std::size_t cols = net_->input_dim();
  if (x.cols() != cols)
    throw std::invalid_argument("InferenceSession::forward: dimension mismatch");
  input_.resize(n, cols);  // kept: backward reads it for param grads
  for (std::size_t i = 0; i < ws_.size(); ++i) {
    const std::size_t out = net_->layer(i).output_dim();
    ws_[i].pre_activation.resize(n, out);
    ws_[i].output.resize(n, out);
  }
  // Each thread takes its own rows from the input copy through every
  // layer: a row's activations depend on that row alone.
  math::for_each_share(
      n, math::gemm::kBlockRows, split(n),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r)
          std::copy_n(x.data() + (rows != nullptr ? rows[r] : r) * cols, cols,
                      input_.data() + r * cols);
        for (std::size_t i = 0; i < ws_.size(); ++i)
          net_->layer(i).forward(layer_input(i), ws_[i], begin, end);
      });
  if (params_bound_)
    for (auto& ws : ws_) ws.weights_t.resize(0, 0);  // stale after a step
  return ws_.back().output;
}

const math::Matrix& InferenceSession::logits() const {
  return ws_.back().output;
}

const math::Matrix& InferenceSession::softmax_of_logits(float temperature) {
  probs_ = logits();
  for (std::size_t i = 0; i < probs_.rows(); ++i)
    math::softmax_inplace(probs_.row(i), temperature);
  return probs_;
}

const math::Matrix& InferenceSession::predict_proba(const math::Matrix& x,
                                                    float temperature) {
  forward(x);
  return softmax_of_logits(temperature);
}

std::span<const int> InferenceSession::predict(const math::Matrix& x) {
  const math::Matrix& z = forward(x);
  labels_.resize(z.rows());
  for (std::size_t i = 0; i < z.rows(); ++i)
    labels_[i] = static_cast<int>(math::argmax(z.row(i)));
  return labels_;
}

void InferenceSession::retain_rows(std::span<const std::size_t> keep) {
  for (std::size_t k = 0; k < keep.size(); ++k)
    if (keep[k] >= input_.rows() || (k > 0 && keep[k] <= keep[k - 1]))
      throw std::invalid_argument(
          "InferenceSession::retain_rows: rows must be ascending and in "
          "range");
  keep_rows(input_, keep);
  for (auto& ws : ws_) {
    keep_rows(ws.pre_activation, keep);
    keep_rows(ws.output, keep);
  }
}

void InferenceSession::run_backward(bool params) {
  // Layers from `first` up hand dLoss/dInput down: every layer in the
  // attack sweep, every layer but 0 in the training sweep.
  const std::size_t first = params ? 1 : 0;
  const std::size_t n = grad_logits_.rows();
  for (std::size_t i = first; i < ws_.size(); ++i) {
    net_->layer(i).pack_weights(ws_[i]);
    ws_[i].grad_input.resize(n, net_->layer(i).input_dim());
  }
  math::on_team(split(n), [&](std::size_t part, std::size_t parts) {
    // Down the dLoss/dInput chain, each thread on its own rows.
    const math::Share rows =
        math::share_of(n, math::gemm::kBlockRows, part, parts);
    math::Matrix* grad = &grad_logits_;
    for (std::size_t i = ws_.size(); i-- > 0;) {
      net_->layer(i).backward_rows(*grad, ws_[i], i >= first, rows.begin,
                                   rows.end);
      grad = &ws_[i].grad_input;
    }
    if (!params) return;
    // A weight gradient sums over every row: split it by elements instead,
    // once every row's dLoss/dPreActivation is in place.
    math::team_barrier(parts);
    grad = &grad_logits_;
    for (std::size_t i = ws_.size(); i-- > 0;) {
      net_->layer(i).add_param_grads(layer_input(i), *grad, ws_[i], part,
                                     parts);
      grad = &ws_[i].grad_input;
    }
  });
}

void InferenceSession::require_tape() const {
  if (ws_.back().output.cols() != net_->output_dim())
    throw std::logic_error("InferenceSession: no forward to differentiate");
}

void InferenceSession::seed_backward(const math::Matrix& grad_logits) {
  if (!grad_logits.same_shape(ws_.back().output))
    throw std::invalid_argument("InferenceSession::backward: shape mismatch");
  grad_logits_ = grad_logits;
}

void InferenceSession::backward_params(const math::Matrix& grad_logits) {
  seed_backward(grad_logits);
  if (!params_bound_)
    throw std::logic_error(
        "InferenceSession::backward_params: no accumulators before "
        "bind_params");
  run_backward(/*params=*/true);
}

const math::Matrix& InferenceSession::backward_input(
    const math::Matrix& grad_logits) {
  seed_backward(grad_logits);
  run_backward(/*params=*/false);
  return ws_.front().grad_input;
}

void InferenceSession::softmax_jacobian_row(std::size_t target_class) {
  // dF_c/dlogit_j = p_c (delta_cj - p_j): the softmax Jacobian row.
  const std::size_t classes = probs_.cols();
  grad_logits_.resize(probs_.rows(), classes);
  for (std::size_t i = 0; i < probs_.rows(); ++i) {
    const float pc = probs_(i, target_class);
    for (std::size_t j = 0; j < classes; ++j)
      grad_logits_(i, j) =
          pc * ((j == target_class ? 1.0f : 0.0f) - probs_(i, j));
  }
}

const math::Matrix& InferenceSession::input_gradient(int target_class) {
  const std::size_t classes = net_->output_dim();
  if (target_class < 0 || static_cast<std::size_t>(target_class) >= classes)
    throw std::invalid_argument("input_gradient: class out of range");
  require_tape();
  softmax_of_logits(1.0f);
  softmax_jacobian_row(static_cast<std::size_t>(target_class));
  run_backward(/*params=*/false);
  return ws_.front().grad_input;
}

const math::Matrix& InferenceSession::input_gradient(const math::Matrix& x,
                                                     int target_class) {
  forward(x);
  return input_gradient(target_class);
}

std::span<const math::Matrix> InferenceSession::input_gradients_all() {
  require_tape();
  const std::size_t classes = net_->output_dim();
  class_grads_.resize(classes);
  softmax_of_logits(1.0f);
  for (std::size_t c = 0; c < classes; ++c) {
    softmax_jacobian_row(c);
    run_backward(/*params=*/false);
    class_grads_[c] = ws_.front().grad_input;
  }
  return class_grads_;
}

std::span<const math::Matrix> InferenceSession::input_gradients_all(
    const math::Matrix& x) {
  forward(x);
  return input_gradients_all();
}

std::vector<ParamRef> InferenceSession::bind_params(Network& net) {
  if (&net != net_)
    throw std::invalid_argument(
        "InferenceSession::bind_params: different network");
  if (!params_bound_)
    for (std::size_t i = 0; i < ws_.size(); ++i)
      net.layer(i).init_workspace(ws_[i]);
  params_bound_ = true;
  std::vector<ParamRef> all;
  for (std::size_t i = 0; i < ws_.size(); ++i) {
    auto values = net.mutable_layer(i).param_values();
    for (std::size_t j = 0; j < values.size(); ++j)
      all.push_back({values[j], &ws_[i].param_grads[j]});
  }
  return all;
}

void InferenceSession::zero_param_grads() {
  for (auto& ws : ws_)
    for (auto& g : ws.param_grads) g.fill(0.0f);
}

}  // namespace mev::nn
