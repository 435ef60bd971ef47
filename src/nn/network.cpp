#include "nn/network.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace mev::nn {

namespace {
constexpr std::uint32_t kMagic = 0x4d45564eu;  // "MEVN"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint8_t kDenseTag = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("load_network: truncated stream");
  return v;
}

void write_matrix(std::ostream& os, const math::Matrix& m) {
  write_pod<std::uint64_t>(os, m.rows());
  write_pod<std::uint64_t>(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
}

math::Matrix read_matrix(std::istream& is) {
  const auto rows = read_pod<std::uint64_t>(is);
  const auto cols = read_pod<std::uint64_t>(is);
  if (rows > (1u << 24) || cols > (1u << 24))
    throw std::runtime_error("load_network: implausible matrix shape");
  math::Matrix m(static_cast<std::size_t>(rows),
                 static_cast<std::size_t>(cols));
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!is) throw std::runtime_error("load_network: truncated matrix data");
  return m;
}

}  // namespace

void Network::add(DenseLayer layer) {
  if (!layers_.empty() && layers_.back().output_dim() != layer.input_dim())
    throw std::invalid_argument("Network::add: layer dimension mismatch");
  layers_.push_back(std::move(layer));
}

std::size_t Network::input_dim() const {
  if (layers_.empty()) throw std::logic_error("Network: empty");
  return layers_.front().input_dim();
}

std::size_t Network::output_dim() const {
  if (layers_.empty()) throw std::logic_error("Network: empty");
  return layers_.back().output_dim();
}

std::string Network::architecture_string() const {
  std::ostringstream os;
  bool first = true;
  for (const DenseLayer& layer : layers_) {
    if (first) {
      os << layer.input_dim();
      first = false;
    }
    os << "-" << layer.output_dim();
  }
  return os.str();
}

Network make_mlp(const MlpConfig& config) {
  if (config.dims.size() < 2)
    throw std::invalid_argument("make_mlp: need at least input and output dims");
  math::Rng rng(config.seed);
  Network net;
  for (std::size_t i = 0; i + 1 < config.dims.size(); ++i) {
    const bool last = (i + 2 == config.dims.size());
    const Activation act =
        last ? Activation::kIdentity : config.hidden_activation;
    net.add(DenseLayer(config.dims[i], config.dims[i + 1], act, rng));
  }
  return net;
}

void save_network(const Network& net, std::ostream& os) {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(net.num_layers()));
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const DenseLayer& layer = net.layer(i);
    write_pod(os, kDenseTag);
    write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(layer.activation()));
    write_matrix(os, layer.weights());
    write_matrix(os, layer.bias());
  }
  if (!os) throw std::runtime_error("save_network: write failure");
}

void save_network(const Network& net, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_network: cannot open " + path);
  save_network(net, os);
}

Network load_network(std::istream& is) {
  if (read_pod<std::uint32_t>(is) != kMagic)
    throw std::runtime_error("load_network: bad magic");
  if (read_pod<std::uint32_t>(is) != kVersion)
    throw std::runtime_error("load_network: unsupported version");
  const auto count = read_pod<std::uint32_t>(is);
  Network net;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (read_pod<std::uint8_t>(is) != kDenseTag)
      throw std::runtime_error("load_network: unknown layer tag");
    const auto act = read_pod<std::uint8_t>(is);
    if (act > static_cast<std::uint8_t>(Activation::kLeakyRelu))
      throw std::runtime_error("load_network: unknown activation");
    math::Matrix weights = read_matrix(is);
    math::Matrix bias = read_matrix(is);
    net.add(DenseLayer(std::move(weights), std::move(bias),
                       static_cast<Activation>(act)));
  }
  return net;
}

Network load_network(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_network: cannot open " + path);
  return load_network(is);
}

}  // namespace mev::nn
