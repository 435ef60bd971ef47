// The dense layer (affine + activation), the one layer type of nn.
//
// A layer is READ-ONLY during forward/backward: every cache the backward
// pass needs (pre-activations, outputs) and every gradient accumulator
// lives in a LayerWorkspace owned by an InferenceSession, not in the
// layer. One Network can therefore be shared across threads, each thread
// owning its own session (see nn/session.hpp).
#pragma once

#include <vector>

#include "math/matrix.hpp"
#include "math/rng.hpp"
#include "nn/activation.hpp"

namespace mev::nn {

/// A mutable view of one parameter tensor and its gradient accumulator,
/// handed to optimizers. The value points into a Network's layer, the
/// gradient into a session workspace (see InferenceSession::bind_params).
struct ParamRef {
  math::Matrix* value = nullptr;
  math::Matrix* grad = nullptr;
};

/// Per-layer scratch buffers, owned by an InferenceSession (one per layer
/// per session). The session sizes every matrix for the batch before a
/// pass, capacity-preservingly, so the steady state allocates nothing; the
/// layer's calls then write only the rows (or, for parameter gradients,
/// the elements) they are given.
struct LayerWorkspace {
  math::Matrix pre_activation;  // z = x*W + b (batch x out)
  math::Matrix output;          // layer output (batch x out)
  math::Matrix grad_input;      // backward result dLoss/dInput (batch x in)
  /// Packed Wᵀ (out x in), so dLoss/dInput runs the vectorized GEMM
  /// instead of a dot product per element. Built from the layer's weights
  /// by pack_weights() when a backward wants an input gradient and finds
  /// it empty; forward-only sessions never build it, and the training
  /// sweep never builds layer 0's. A session whose parameters are bound
  /// for writing empties it after every forward (capacity kept), so no
  /// pack outlives an optimizer step.
  math::Matrix weights_t;
  /// Parameter-gradient accumulators, one per parameter tensor in the
  /// order of DenseLayer::param_values(). Sized by
  /// DenseLayer::init_workspace when a session binds its parameters for
  /// training; empty in a session that never trains.
  std::vector<math::Matrix> param_grads;
};

/// Fully connected layer: y = act(x * W + b), W is in x out, b is 1 x out.
/// The only layer type: the paper's target and substitute models are plain
/// fully connected stacks.
class DenseLayer {
 public:
  /// Initializes weights with He (relu-family) or Glorot (otherwise)
  /// scaling from `rng`; biases start at zero.
  DenseLayer(std::size_t in, std::size_t out, Activation act, math::Rng& rng);

  /// Constructs with explicit parameters (for deserialization/tests).
  /// `bias` must be 1 x weights.cols().
  DenseLayer(math::Matrix weights, math::Matrix bias, Activation act);

  /// Forward of batch rows [begin, end) of `x`: z = x*W + b into those
  /// rows of ws.pre_activation and act(z) into those rows of ws.output,
  /// which must already be x.rows() x output_dim(). No other row is read
  /// or written, so threads can run disjoint ranges of one batch at once.
  /// Reads layer parameters only.
  void forward(const math::Matrix& x, LayerWorkspace& ws, std::size_t begin,
               std::size_t end) const;

  /// Backward of batch rows [begin, end), after a forward of the same
  /// batch into `ws`: turns those rows of dLoss/dOutput in `grad_output`
  /// into dLoss/dPreActivation in place and, with `input_grad`, writes
  /// those rows of dLoss/dInput = dPre*Wᵀ into ws.grad_input (already
  /// batch x input_dim(), against the pack from pack_weights()). No other
  /// row is read or written.
  void backward_rows(math::Matrix& grad_output, LayerWorkspace& ws,
                     bool input_grad, std::size_t begin,
                     std::size_t end) const;

  /// Builds ws.weights_t = Wᵀ unless it is already there.
  void pack_weights(LayerWorkspace& ws) const;

  /// Share `part` of `parts` of the parameter gradients, once
  /// backward_rows has turned every batch row of `grad_pre` into
  /// dLoss/dPreActivation: rows of dW += inputᵀ*dPre for a share of the
  /// input features, and db += the column sums of dPre for a share of the
  /// output columns. The shares of parts 0..parts-1 add every gradient
  /// element once, each summing its batch rows in order; `input` is the
  /// matrix the forward read.
  void add_param_grads(const math::Matrix& input,
                       const math::Matrix& grad_pre, LayerWorkspace& ws,
                       std::size_t part, std::size_t parts) const;

  /// Sizes (and zeroes) ws.param_grads to match this layer's parameters.
  void init_workspace(LayerWorkspace& ws) const;

  /// Parameter tensors {weights, bias}, in the order of
  /// LayerWorkspace::param_grads.
  std::vector<math::Matrix*> param_values();
  std::vector<const math::Matrix*> param_values() const;

  std::size_t input_dim() const { return weights_.rows(); }
  std::size_t output_dim() const { return weights_.cols(); }

  Activation activation() const noexcept { return activation_; }
  const math::Matrix& weights() const noexcept { return weights_; }
  math::Matrix& mutable_weights() noexcept { return weights_; }
  const math::Matrix& bias() const noexcept { return bias_; }
  math::Matrix& mutable_bias() noexcept { return bias_; }

 private:
  math::Matrix weights_;  // in x out
  math::Matrix bias_;     // 1 x out
  Activation activation_;
};

}  // namespace mev::nn
