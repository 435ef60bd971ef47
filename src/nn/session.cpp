#include "nn/session.hpp"

#include <stdexcept>

#include "math/linalg.hpp"
#include "nn/network.hpp"

namespace mev::nn {

InferenceSession::InferenceSession(const Network& net, std::size_t max_batch)
    : net_(&net) {
  if (net.num_layers() == 0)
    throw std::invalid_argument("InferenceSession: empty network");
  ws_.resize(net.num_layers());
  for (std::size_t i = 0; i < ws_.size(); ++i)
    net.layer(i).init_workspace(ws_[i]);
  class_grads_.resize(net.output_dim());
  if (max_batch > 0) {
    input_.reserve(max_batch, net.input_dim());
    probs_.reserve(max_batch, net.output_dim());
    grad_logits_.reserve(max_batch, net.output_dim());
    labels_.reserve(max_batch);
    for (std::size_t i = 0; i < ws_.size(); ++i) {
      const Layer& layer = net.layer(i);
      ws_[i].pre_activation.reserve(max_batch, layer.output_dim());
      ws_[i].output.reserve(max_batch, layer.output_dim());
      ws_[i].mask.reserve(max_batch, layer.output_dim());
      ws_[i].grad_input.reserve(max_batch, layer.input_dim());
    }
    for (auto& g : class_grads_) g.reserve(max_batch, net.input_dim());
  }
}

const math::Matrix& InferenceSession::layer_input(
    std::size_t layer_index) const {
  return layer_index == 0 ? input_ : ws_[layer_index - 1].output;
}

const math::Matrix& InferenceSession::forward(const math::Matrix& x,
                                              bool training) {
  input_ = x;  // capacity-reusing copy; backward may need it for param grads
  for (std::size_t i = 0; i < ws_.size(); ++i)
    net_->layer(i).forward(layer_input(i), ws_[i], training);
  if (params_bound_)
    for (auto& ws : ws_) ws.weights_t.resize(0, 0);  // stale after a step
  return ws_.back().output;
}

const math::Matrix& InferenceSession::logits() const {
  return ws_.back().output;
}

const math::Matrix& InferenceSession::predict_proba(const math::Matrix& x,
                                                    float temperature) {
  const math::Matrix& z = forward(x, /*training=*/false);
  probs_ = z;
  for (std::size_t i = 0; i < probs_.rows(); ++i)
    math::softmax_inplace(probs_.row(i), temperature);
  return probs_;
}

std::span<const int> InferenceSession::predict(const math::Matrix& x) {
  const math::Matrix& z = forward(x, /*training=*/false);
  labels_.resize(z.rows());
  for (std::size_t i = 0; i < z.rows(); ++i)
    labels_[i] = static_cast<int>(math::argmax(z.row(i)));
  return labels_;
}

const math::Matrix& InferenceSession::run_backward(
    bool accumulate_param_grads) {
  math::Matrix* grad = &grad_logits_;
  for (std::size_t i = ws_.size(); i-- > 0;) {
    net_->layer(i).backward(*grad, layer_input(i), ws_[i],
                            accumulate_param_grads);
    grad = &ws_[i].grad_input;
  }
  return ws_.front().grad_input;
}

const math::Matrix& InferenceSession::backward(const math::Matrix& grad_logits,
                                               bool accumulate_param_grads) {
  if (!grad_logits.same_shape(ws_.back().output))
    throw std::invalid_argument("InferenceSession::backward: shape mismatch");
  grad_logits_ = grad_logits;
  return run_backward(accumulate_param_grads);
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

const math::Matrix& InferenceSession::input_gradient(const math::Matrix& x,
                                                     int target_class) {
  const std::size_t classes = net_->output_dim();
  if (target_class < 0 || static_cast<std::size_t>(target_class) >= classes)
    throw std::invalid_argument("input_gradient: class out of range");
  predict_proba(x);
  softmax_jacobian_row(static_cast<std::size_t>(target_class));
  return run_backward(/*accumulate_param_grads=*/false);
}

std::span<const math::Matrix> InferenceSession::input_gradients_all(
    const math::Matrix& x) {
  const std::size_t classes = net_->output_dim();
  predict_proba(x);
  for (std::size_t c = 0; c < classes; ++c) {
    softmax_jacobian_row(c);
    class_grads_[c] = run_backward(/*accumulate_param_grads=*/false);
  }
  return class_grads_;
}

std::vector<ParamRef> InferenceSession::bind_params(Network& net) {
  if (&net != net_)
    throw std::invalid_argument(
        "InferenceSession::bind_params: different network");
  params_bound_ = true;
  std::vector<ParamRef> all;
  for (std::size_t i = 0; i < ws_.size(); ++i) {
    auto values = net.mutable_layer(i).param_values();
    if (values.size() != ws_[i].param_grads.size())
      throw std::logic_error("bind_params: workspace out of sync");
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
