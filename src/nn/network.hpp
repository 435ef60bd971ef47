// Feed-forward network (MLP) — the model class for both the target malware
// detector (4-layer DNN) and the substitute model (Table IV: 5-layer,
// 491-1200-1500-1300-2).
//
// A Network is logically CONST during evaluation: all forward caches and
// gradient accumulators live in InferenceSession workspaces
// (nn/session.hpp), so one network can be shared across threads with one
// session per thread. Gradients — for training, and the input gradients
// dF_i(X)/dX_j (Eq. 1 of the paper) the JSMA saliency map consumes — are
// computed only through explicit sessions.
//
// The member evaluation methods below (forward, predict_proba, predict)
// are a convenience API over an internal scratch session; they are NOT
// thread-safe on a shared instance — use explicit sessions for that.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "math/matrix.hpp"
#include "math/rng.hpp"
#include "nn/layer.hpp"

namespace mev::nn {

class InferenceSession;

class Network {
 public:
  Network();
  ~Network();
  Network(const Network& other);
  Network& operator=(const Network& other);
  // Moves drop the scratch session (it holds a pointer to the moved-from
  // object); any external sessions bound to either side are invalidated.
  Network(Network&& other) noexcept;
  Network& operator=(Network&& other) noexcept;

  /// Appends a layer; its input_dim must match the current output_dim.
  /// Invalidates any session bound to this network.
  void add(std::unique_ptr<Layer> layer);

  std::size_t num_layers() const noexcept { return layers_.size(); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }
  Layer& mutable_layer(std::size_t i) { return *layers_.at(i); }

  std::size_t input_dim() const;
  std::size_t output_dim() const;

  /// Total number of trainable scalars.
  std::size_t num_parameters() const;

  /// Forward pass over a batch; returns logits (batch x classes).
  math::Matrix forward(const math::Matrix& x, bool training = false);

  /// Softmax probabilities at the given temperature.
  math::Matrix predict_proba(const math::Matrix& x, float temperature = 1.0f);

  /// Argmax class per row.
  std::vector<int> predict(const math::Matrix& x);

  /// Layer widths, e.g. "491-1200-1500-1300-2" (dense layers only).
  std::string architecture_string() const;

 private:
  InferenceSession& scratch();

  std::vector<std::unique_ptr<Layer>> layers_;
  // Lazily created workspace backing the forward-only conveniences; never
  // copied or moved with the network.
  std::unique_ptr<InferenceSession> scratch_;
};

struct MlpConfig {
  std::vector<std::size_t> dims;  // e.g. {491, 1200, 1500, 1300, 2}
  Activation hidden_activation = Activation::kRelu;
  float dropout = 0.0f;  // applied after each hidden layer when > 0
  std::uint64_t seed = 1;
};

/// Builds an MLP whose final layer is linear (logits); apply softmax via
/// predict_proba or a loss function.
Network make_mlp(const MlpConfig& config);

/// Serializes all layers (architecture + parameters) to a binary stream.
void save_network(const Network& net, std::ostream& os);
/// Writes to a file; throws std::runtime_error on I/O failure.
void save_network(const Network& net, const std::string& path);

/// Reads a network written by save_network.
Network load_network(std::istream& is);
Network load_network(const std::string& path);

}  // namespace mev::nn
