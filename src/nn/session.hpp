// InferenceSession: a per-thread workspace/tape for evaluating one Network.
//
// The session owns every buffer a forward/backward sweep needs — layer
// activations, pre-activations, dropout masks, the backward gradient
// chain, the packed weight transposes backward multiplies by, and
// parameter-gradient accumulators — sized once per
// (network, max_batch) and reused across calls. After warm-up the steady
// state performs ZERO heap allocations: all buffers are resized
// capacity-preservingly per batch.
//
// Threading model: share the Network (read-only), own a session per
// thread. Concurrent inference-mode forward/predict/input_gradient calls
// through distinct sessions are safe; training-mode forward on a network
// with dropout layers is the one operation that must stay single-threaded
// (the dropout rng stream lives in the layer for determinism).
//
// Returned references/spans point into session-owned buffers and stay
// valid until the next call on the same session.
//
// Parameter reads: forward reads the network's parameters on every call.
// Backward reads the dense weights through a packed transpose that the
// session builds at its first backward and, once bind_params() has handed
// out writable parameters, rebuilds at the first backward after each
// forward. So parameter writes must go through a bound session (the
// optimizer step between a backward and the next forward); a session that
// is not bound must not run backward after someone else rewrote the
// weights — make a fresh one instead.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "math/matrix.hpp"
#include "nn/layer.hpp"

namespace mev::nn {

class Network;

class InferenceSession {
 public:
  /// Binds to `net` (which must outlive the session and not be
  /// structurally modified — add(), move, assignment — while bound).
  /// `max_batch` > 0 pre-allocates all buffers for that batch size so even
  /// the first call is allocation-free.
  explicit InferenceSession(const Network& net, std::size_t max_batch = 0);

  const Network& network() const noexcept { return *net_; }

  /// Forward pass over a batch; returns the logits buffer
  /// (batch x classes). Allocation-free once warm.
  const math::Matrix& forward(const math::Matrix& x, bool training = false);

  /// The logits from the most recent forward.
  const math::Matrix& logits() const;

  /// Softmax probabilities at the given temperature.
  const math::Matrix& predict_proba(const math::Matrix& x,
                                    float temperature = 1.0f);

  /// Argmax class per row; the span is valid until the next call.
  std::span<const int> predict(const math::Matrix& x);

  /// Backward pass from dLoss/dLogits; returns dLoss/dInput. Must follow
  /// a forward() on the same batch; may be called multiple times per
  /// forward. With `accumulate_param_grads` the per-parameter gradients
  /// are accumulated into the session's accumulators (bind_params); the
  /// attack paths pass false and skip all parameter work.
  const math::Matrix& backward(const math::Matrix& grad_logits,
                               bool accumulate_param_grads = true);

  /// Gradient of the softmax probability of `target_class` with respect
  /// to the input, per sample (batch x input_dim). Runs its own forward
  /// pass in inference mode; never touches parameter gradients.
  const math::Matrix& input_gradient(const math::Matrix& x, int target_class);

  /// Gradients of ALL class probabilities: result[c] is batch x
  /// input_dim. Cheaper than calling input_gradient per class (single
  /// forward pass).
  std::span<const math::Matrix> input_gradients_all(const math::Matrix& x);

  /// Pairs `net`'s parameter tensors with this session's gradient
  /// accumulators for an optimizer. `net` must be the bound network.
  /// From then on every forward drops the backward weight packs, so the
  /// next backward sees the optimizer's writes.
  std::vector<ParamRef> bind_params(Network& net);

  /// Zeroes all parameter-gradient accumulators.
  void zero_param_grads();

 private:
  /// Softmax-Jacobian row for `target_class` into grad_logits_.
  void softmax_jacobian_row(std::size_t target_class);
  const math::Matrix& run_backward(bool accumulate_param_grads);
  const math::Matrix& layer_input(std::size_t layer_index) const;

  const Network* net_;
  std::vector<LayerWorkspace> ws_;   // one per layer
  math::Matrix input_;               // copy of the forward batch
  math::Matrix probs_;               // softmax buffer
  math::Matrix grad_logits_;         // backward seed (clobbered per pass)
  std::vector<math::Matrix> class_grads_;  // input_gradients_all results
  std::vector<int> labels_;          // predict buffer
  bool params_bound_ = false;        // bind_params handed out writable params
};

}  // namespace mev::nn
