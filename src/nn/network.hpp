// Feed-forward network (MLP) — the model class for both the target malware
// detector (4-layer DNN) and the substitute model (Table IV: 5-layer,
// 491-1200-1500-1300-2).
//
// A Network holds layers and parameters only. Evaluation and gradients —
// forward passes, softmax probabilities, argmax labels, training
// gradients, and the input gradients dF_i(X)/dX_j (Eq. 1 of the paper)
// the JSMA saliency map consumes — all run through an explicit
// InferenceSession (nn/session.hpp), which owns every cache and
// accumulator. The network itself is read-only while evaluated, so one
// network can be shared across threads with one session per thread.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "math/matrix.hpp"
#include "math/rng.hpp"
#include "nn/layer.hpp"

namespace mev::nn {

class Network {
 public:
  Network() = default;
  Network(const Network& other);
  Network& operator=(const Network& other);
  // Moves invalidate any session bound to either side.
  Network(Network&& other) noexcept = default;
  Network& operator=(Network&& other) noexcept = default;

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

  /// Layer widths, e.g. "491-1200-1500-1300-2" (dense layers only).
  std::string architecture_string() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

struct MlpConfig {
  std::vector<std::size_t> dims;  // e.g. {491, 1200, 1500, 1300, 2}
  Activation hidden_activation = Activation::kRelu;
  float dropout = 0.0f;  // applied after each hidden layer when > 0
  std::uint64_t seed = 1;
};

/// Builds an MLP whose final layer is linear (logits); apply softmax via
/// InferenceSession::predict_proba or a loss function.
Network make_mlp(const MlpConfig& config);

/// Serializes all layers (architecture + parameters) to a binary stream.
void save_network(const Network& net, std::ostream& os);
/// Writes to a file; throws std::runtime_error on I/O failure.
void save_network(const Network& net, const std::string& path);

/// Reads a network written by save_network.
Network load_network(std::istream& is);
Network load_network(const std::string& path);

}  // namespace mev::nn
