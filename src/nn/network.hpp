// Feed-forward network (MLP) — the model class for both the target malware
// detector (4-layer DNN) and the substitute model (Table IV: 5-layer,
// 491-1200-1500-1300-2).
//
// A Network is a stack of dense layers and holds parameters only.
// Evaluation and gradients — forward passes, softmax probabilities,
// argmax labels, training gradients, and the input gradients
// dF_i(X)/dX_j (Eq. 1 of the paper) the JSMA saliency map consumes — all
// run through an explicit InferenceSession (nn/session.hpp), which owns
// every cache and accumulator. The network itself is read-only while evaluated, so one
// network can be shared across threads with one session per thread.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "math/matrix.hpp"
#include "math/rng.hpp"
#include "nn/layer.hpp"

namespace mev::nn {

/// Copies are deep (a copy owns its own parameters). Copy or move
/// assignment, and moves, invalidate any session bound to either side.
class Network {
 public:
  /// Appends a layer; its input_dim must match the current output_dim.
  /// Invalidates any session bound to this network.
  void add(DenseLayer layer);

  std::size_t num_layers() const noexcept { return layers_.size(); }
  const DenseLayer& layer(std::size_t i) const { return layers_.at(i); }
  DenseLayer& mutable_layer(std::size_t i) { return layers_.at(i); }

  std::size_t input_dim() const;
  std::size_t output_dim() const;

  /// Layer widths, e.g. "491-1200-1500-1300-2".
  std::string architecture_string() const;

 private:
  std::vector<DenseLayer> layers_;
};

struct MlpConfig {
  std::vector<std::size_t> dims;  // e.g. {491, 1200, 1500, 1300, 2}
  Activation hidden_activation = Activation::kRelu;
  std::uint64_t seed = 1;
};

/// Builds an MLP whose final layer is linear (logits); apply softmax via
/// InferenceSession::predict_proba or a loss function.
Network make_mlp(const MlpConfig& config);

/// Serializes all layers (architecture + parameters) to a binary stream:
/// magic "MEVN", version 1, the layer count, then per layer tag 1, the
/// activation byte, the weights and the bias.
void save_network(const Network& net, std::ostream& os);
/// Writes to a file; throws std::runtime_error on I/O failure.
void save_network(const Network& net, const std::string& path);

/// Reads a network written by save_network. Throws std::runtime_error on
/// a bad magic or version, an unknown layer tag or activation, or a
/// truncated stream.
Network load_network(std::istream& is);
Network load_network(const std::string& path);

}  // namespace mev::nn
