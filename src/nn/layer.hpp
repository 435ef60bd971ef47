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
/// per session). All matrices are resized capacity-preservingly per batch,
/// so the steady state allocates nothing.
struct LayerWorkspace {
  math::Matrix pre_activation;  // z = x*W + b (batch x out)
  math::Matrix output;          // layer output (batch x out)
  math::Matrix grad_input;      // backward result dLoss/dInput (batch x in)
  /// Packed Wᵀ (out x in), so dLoss/dInput runs the vectorized
  /// matmul_into instead of a dot product per element. Built from the
  /// layer's weights by the first backward that wants an input gradient
  /// and finds it empty; forward-only sessions never build it, and the
  /// training sweep never builds layer 0's. A session whose parameters
  /// are bound for writing empties it after every forward (capacity
  /// kept), so no pack outlives an optimizer step.
  math::Matrix weights_t;
  /// Parameter-gradient accumulators, one per parameter tensor in the
  /// order of DenseLayer::param_values(). Sized by
  /// DenseLayer::init_workspace when a session binds its parameters for
  /// training; empty in a session that never trains.
  std::vector<math::Matrix> param_grads;
};

/// Which gradients one DenseLayer::backward call produces. The training
/// sweep wants parameter gradients everywhere and an input gradient
/// everywhere but layer 0 (nothing consumes dLoss/dFeatures there); the
/// attack sweep wants only input gradients.
enum class Grads {
  kInput,           // dLoss/dInput into ws.grad_input; parameters untouched
  kParams,          // parameter gradients only; ws.grad_input left as is
  kParamsAndInput,  // both
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

  /// Forward pass on a batch (rows are samples) into ws.output. Reads
  /// layer parameters only; mutable state lives in `ws`.
  void forward(const math::Matrix& x, LayerWorkspace& ws) const;

  /// Backward pass: receives dLoss/dOutput (clobbered as scratch space).
  /// Must follow a forward call with the matching batch in the same
  /// workspace; may be called many times per forward (e.g. one per output
  /// class). `grads` names what to produce: parameter gradients are
  /// accumulated into ws.param_grads (and `input` must be the matrix handed
  /// to the matching forward call); dLoss/dInput is written into
  /// ws.grad_input. Work for a gradient not asked for is skipped.
  void backward(math::Matrix& grad_output, const math::Matrix& input,
                LayerWorkspace& ws, Grads grads) const;

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
