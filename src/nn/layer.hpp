// Layer abstraction: dense (affine + activation) and dropout layers.
//
// Layers are READ-ONLY during forward/backward: every cache the backward
// pass needs (pre-activations, outputs, dropout masks) and every gradient
// accumulator lives in a LayerWorkspace owned by an InferenceSession, not
// in the layer. One Network can therefore be shared across threads, each
// thread owning its own session (see nn/session.hpp). The single
// exception is DropoutLayer's training-mode rng draw, documented below.
#pragma once

#include <memory>
#include <string>
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
  math::Matrix pre_activation;  // dense: z = x*W + b (batch x out)
  math::Matrix output;          // layer output (batch x out)
  math::Matrix mask;            // dropout keep mask (training only)
  math::Matrix grad_input;      // backward result dLoss/dInput (batch x in)
  /// Dense: packed Wᵀ (out x in), so dLoss/dInput runs the vectorized
  /// matmul_into instead of a dot product per element. Built from the
  /// layer's weights by the first backward that wants an input gradient
  /// and finds it empty; forward-only sessions never build it, and the
  /// training sweep never builds layer 0's. A session whose parameters
  /// are bound for writing empties it after every forward (capacity
  /// kept), so no pack outlives an optimizer step.
  math::Matrix weights_t;
  /// Parameter-gradient accumulators, one per parameter tensor in the
  /// order of Layer::param_values(). Sized by Layer::init_workspace.
  std::vector<math::Matrix> param_grads;
};

/// Which gradients one Layer::backward call produces. The training sweep
/// wants parameter gradients everywhere and an input gradient everywhere
/// but layer 0 (nothing consumes dLoss/dFeatures there); the attack sweep
/// wants only input gradients.
enum class Grads {
  kInput,           // dLoss/dInput into ws.grad_input; parameters untouched
  kParams,          // parameter gradients only; ws.grad_input left as is
  kParamsAndInput,  // both
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass on a batch (rows are samples) into ws.output. Reads
  /// layer parameters only; mutable state lives in `ws`. `training`
  /// enables stochastic behaviour (dropout).
  virtual void forward(const math::Matrix& x, LayerWorkspace& ws,
                       bool training) const = 0;

  /// Backward pass: receives dLoss/dOutput (clobbered as scratch space).
  /// Must follow a forward call with the matching batch in the same
  /// workspace; may be called many times per forward (e.g. one per output
  /// class). `grads` names what to produce: parameter gradients are
  /// accumulated into ws.param_grads (and `input` must be the matrix handed
  /// to the matching forward call); dLoss/dInput is written into
  /// ws.grad_input. Work for a gradient not asked for is skipped.
  virtual void backward(math::Matrix& grad_output, const math::Matrix& input,
                        LayerWorkspace& ws, Grads grads) const = 0;

  /// Sizes (and zeroes) ws.param_grads to match this layer's parameters.
  virtual void init_workspace(LayerWorkspace& ws) const {
    ws.param_grads.clear();
  }

  /// Parameter tensors in the order matching LayerWorkspace::param_grads
  /// (empty for parameterless layers).
  virtual std::vector<math::Matrix*> param_values() { return {}; }
  virtual std::vector<const math::Matrix*> param_values() const { return {}; }

  virtual std::size_t input_dim() const = 0;
  virtual std::size_t output_dim() const = 0;

  virtual std::unique_ptr<Layer> clone() const = 0;
  virtual std::string name() const = 0;
};

/// Fully connected layer: y = act(x * W + b), W is in x out, b is 1 x out.
class DenseLayer final : public Layer {
 public:
  /// Initializes weights with He (relu-family) or Glorot (otherwise)
  /// scaling from `rng`; biases start at zero.
  DenseLayer(std::size_t in, std::size_t out, Activation act, math::Rng& rng);

  /// Constructs with explicit parameters (for deserialization/tests).
  /// `bias` must be 1 x weights.cols().
  DenseLayer(math::Matrix weights, math::Matrix bias, Activation act);

  void forward(const math::Matrix& x, LayerWorkspace& ws,
               bool training) const override;
  void backward(math::Matrix& grad_output, const math::Matrix& input,
                LayerWorkspace& ws, Grads grads) const override;
  void init_workspace(LayerWorkspace& ws) const override;
  std::vector<math::Matrix*> param_values() override;
  std::vector<const math::Matrix*> param_values() const override;

  std::size_t input_dim() const override { return weights_.rows(); }
  std::size_t output_dim() const override { return weights_.cols(); }
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "dense"; }

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

/// Inverted dropout: active only in training mode; scales kept units by
/// 1/(1-rate) so inference needs no rescaling.
///
/// Thread-safety: inference-mode forward touches no mutable state. The
/// TRAINING-mode forward draws from the layer-owned rng (kept in the layer
/// so the dropout stream is deterministic per network, matching the
/// pre-session behaviour) and is therefore the one operation that must not
/// run concurrently on a shared network.
class DropoutLayer final : public Layer {
 public:
  /// `dim` is the (equal) input/output width; rate in [0, 1).
  DropoutLayer(std::size_t dim, float rate, std::uint64_t seed);

  void forward(const math::Matrix& x, LayerWorkspace& ws,
               bool training) const override;
  void backward(math::Matrix& grad_output, const math::Matrix& input,
                LayerWorkspace& ws, Grads grads) const override;

  std::size_t input_dim() const override { return dim_; }
  std::size_t output_dim() const override { return dim_; }
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "dropout"; }

  float rate() const noexcept { return rate_; }

 private:
  std::size_t dim_;
  float rate_;
  std::uint64_t seed_;
  mutable math::Rng rng_;  // training-mode draws only; see class comment
};

}  // namespace mev::nn
