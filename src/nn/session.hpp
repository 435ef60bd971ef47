// InferenceSession: a per-thread workspace/tape for evaluating one Network.
//
// The session owns every buffer a forward/backward sweep needs — layer
// activations, pre-activations, the backward gradient chain and the packed
// weight transposes backward multiplies by — sized once per (network,
// max_batch) and reused across calls. After warm-up the steady state
// performs ZERO heap allocations: all buffers are resized
// capacity-preservingly per batch. A session allocates only what it is
// used for: the parameter-gradient accumulators exist from bind_params()
// on, the per-class gradients from the first input_gradients_all().
//
// Threading model: share the Network (read-only), own a session per
// thread. Concurrent forward/predict/input_gradient calls through
// distinct sessions are safe. Training writes the parameters, so it needs
// the network to itself.
//
// A pass uses the caller's OpenMP team. forward() and each backward sweep
// open one parallel region (math/parallel.hpp) when the batch has more
// than one 4-row block and the pass more than 2^16 multiply-adds. In it,
// each thread takes its own rows through every layer with no barrier
// between layers; the training sweep then waits once and splits the
// weight gradients by input feature and the bias sums by column. Called
// inside another active region (a JSMA shard), or with a team of one, a
// pass opens no region and runs on the calling thread alone. Outputs are
// the same bits for every team size: rows never share an accumulator, and
// every gradient element sums its batch rows in order from +0.
//
// Returned references/spans point into session-owned buffers and stay
// valid until the next call on the same session.
//
// The tape. forward() records its batch, every layer's pre-activations and
// outputs (the last layer's are the logits). Every backward and gradient
// call differentiates that tape; none runs a forward of its own, except
// the overloads taking a batch x, which are forward(x) followed by the
// tape call. retain_rows(keep) compacts the tape in place to the rows
// `keep` names (strictly ascending batch positions): row k of every tape
// buffer becomes what row keep[k] was, and the next gradient call returns
// one row per kept row. Because no two rows of a GEMM share an accumulator
// (math/gemm.cpp), a retained row's logits and gradients are bit for bit
// what a fresh forward over the kept rows alone would give. An attack loop
// uses this to drop the rows it has finished with between one forward and
// its backward.
//
// Two backward sweeps. backward_params() is the trainer's: it accumulates
// every parameter gradient and passes dLoss/dInput down through every
// layer but the first, whose input gradient (dLoss/dFeatures) no optimizer
// reads. Skipping it saves a batch x hidden x features GEMM, as large as
// layer 0's forward, and layer 0's Wᵀ pack. backward_input(),
// input_gradient() and input_gradients_all() are the attacks': they form
// dLoss/dInput through every layer and touch no parameter accumulator.
//
// Parameter reads: forward reads the network's parameters on every call.
// A backward that passes dLoss/dInput down through a dense layer reads its
// weights through a packed transpose that the session builds at the first
// such backward: every dense layer in the attack sweep, every one but
// layer 0 in the training sweep. Once bind_params() has handed out
// writable parameters, the packs are dropped by every forward and rebuilt
// at the next backward. So parameter writes must go through a bound session
// (the optimizer step between a backward and the next forward); a session
// that is not bound must not run backward after someone else rewrote the
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
  const math::Matrix& forward(const math::Matrix& x);
  /// Forward pass over the batch whose row i is row rows[i] of `x`,
  /// gathered straight into the tape (std::out_of_range for a bad index).
  const math::Matrix& forward(const math::Matrix& x,
                              std::span<const std::size_t> rows);

  /// The logits from the most recent forward.
  const math::Matrix& logits() const;

  /// Softmax probabilities at the given temperature.
  const math::Matrix& predict_proba(const math::Matrix& x,
                                    float temperature = 1.0f);

  /// Argmax class per row; the span is valid until the next call.
  std::span<const int> predict(const math::Matrix& x);

  /// Compacts the last forward's tape to the batch rows in `keep`, which
  /// must be strictly ascending and in range (std::invalid_argument
  /// otherwise). Allocation-free.
  void retain_rows(std::span<const std::size_t> keep);

  /// The two backward sweeps from dLoss/dLogits. Each must follow a
  /// forward() on the same batch; either may run many times per forward.
  ///
  /// Training sweep: accumulates every parameter gradient into the
  /// session's accumulators. It stops after layer 0's parameter gradients,
  /// so dLoss/dInput is never formed. Throws std::logic_error unless
  /// bind_params() has created the accumulators.
  void backward_params(const math::Matrix& grad_logits);
  /// Attack sweep: returns dLoss/dInput and touches no accumulator.
  const math::Matrix& backward_input(const math::Matrix& grad_logits);

  /// Gradient of the softmax probability of `target_class` with respect
  /// to the input, per row of the tape (rows x input_dim). Never touches
  /// parameter gradients. Throws std::logic_error before any forward.
  const math::Matrix& input_gradient(int target_class);
  /// forward(x), then input_gradient(target_class).
  const math::Matrix& input_gradient(const math::Matrix& x, int target_class);

  /// Gradients of ALL class probabilities on the tape: result[c] is rows x
  /// input_dim. Cheaper than calling input_gradient per class (the
  /// softmax is formed once).
  std::span<const math::Matrix> input_gradients_all();
  /// forward(x), then input_gradients_all().
  std::span<const math::Matrix> input_gradients_all(const math::Matrix& x);

  /// Pairs `net`'s parameter tensors with this session's gradient
  /// accumulators for an optimizer, creating them zeroed at the first
  /// call. `net` must be the bound network. From then on every forward
  /// drops the backward weight packs, so the next backward sees the
  /// optimizer's writes.
  std::vector<ParamRef> bind_params(Network& net);

  /// Zeroes all parameter-gradient accumulators (none before bind_params).
  void zero_param_grads();

 private:
  /// Softmax of the tape's logits at `temperature` into probs_.
  const math::Matrix& softmax_of_logits(float temperature);
  /// Softmax-Jacobian row for `target_class` into grad_logits_.
  void softmax_jacobian_row(std::size_t target_class);
  /// Throws std::logic_error unless a forward has filled the tape.
  void require_tape() const;
  /// Validates and copies the backward seed into grad_logits_.
  void seed_backward(const math::Matrix& grad_logits);
  /// Whether a pass over `rows` batch rows opens a parallel region.
  bool split(std::size_t rows) const;
  /// The forward pass over `n` batch rows: row i is row rows[i] of x, or
  /// row i of x when `rows` is null.
  const math::Matrix& run_forward(const math::Matrix& x,
                                  const std::size_t* rows, std::size_t n);
  /// Runs the layers top-down from the seed in grad_logits_: the training
  /// sweep with `params` (parameter gradients; dLoss/dInput for every
  /// layer but 0), else the attack sweep (dLoss/dInput for every layer).
  void run_backward(bool params);
  const math::Matrix& layer_input(std::size_t layer_index) const;

  const Network* net_;
  std::size_t macs_per_row_ = 0;     // sum of every layer's in x out
  std::vector<LayerWorkspace> ws_;   // one per layer
  math::Matrix input_;               // copy of the forward batch
  math::Matrix probs_;               // softmax buffer
  math::Matrix grad_logits_;         // backward seed (clobbered per pass)
  std::vector<math::Matrix> class_grads_;  // input_gradients_all results
  std::vector<int> labels_;          // predict buffer
  bool params_bound_ = false;        // bind_params handed out writable params
};

}  // namespace mev::nn
