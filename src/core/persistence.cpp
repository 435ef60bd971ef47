#include "core/persistence.hpp"

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "features/transform.hpp"
#include "runtime/atomic_file.hpp"

namespace mev::core {

namespace {

constexpr std::uint32_t kNetworkMagic = 0x4d455644;    // "MEVD"
constexpr std::uint32_t kTransformMagic = 0x4d455654;  // "MEVT"
constexpr std::uint32_t kPersistVersion = 1;

}  // namespace

void save_detector(const MalwareDetector& detector,
                   const std::string& path_prefix) {
  // Network (binary payload in a checksummed envelope).
  std::ostringstream net_payload(std::ios::binary);
  nn::save_network(detector.network(), net_payload);
  runtime::write_envelope_atomic(path_prefix + ".net", kNetworkMagic,
                                 kPersistVersion, net_payload.str());

  // Transform (text payload, tagged by type, same envelope).
  std::ostringstream ts;
  const features::FeatureTransform& transform =
      detector.pipeline().transform();
  if (const auto* count =
          dynamic_cast<const features::CountTransform*>(&transform)) {
    ts << "count\n";
    count->save(ts);
  } else if (transform.name() == "binary") {
    ts << "binary\n" << transform.dim() << "\n";
  } else {
    throw std::runtime_error("save_detector: unsupported transform " +
                             transform.name());
  }
  if (!ts) throw std::runtime_error("save_detector: serialization failure");
  runtime::write_envelope_atomic(path_prefix + ".transform", kTransformMagic,
                                 kPersistVersion, ts.str());
}

std::unique_ptr<MalwareDetector> load_detector(const std::string& path_prefix,
                                               const data::ApiVocab& vocab) {
  std::istringstream net_payload(
      runtime::read_envelope(path_prefix + ".net", kNetworkMagic,
                             kPersistVersion, "detector network"),
      std::ios::binary);
  auto network =
      std::make_shared<nn::Network>(nn::load_network(net_payload));

  std::istringstream ts(runtime::read_envelope(
      path_prefix + ".transform", kTransformMagic, kPersistVersion,
      "detector transform"));
  std::string kind;
  if (!(ts >> kind)) throw std::runtime_error("load_detector: empty transform");
  std::unique_ptr<features::FeatureTransform> transform;
  if (kind == "count") {
    transform = std::make_unique<features::CountTransform>(
        features::CountTransform::load(ts));
  } else if (kind == "binary") {
    std::size_t dim = 0;
    if (!(ts >> dim))
      throw std::runtime_error("load_detector: bad binary transform");
    transform = std::make_unique<features::BinaryTransform>(dim);
  } else {
    throw std::runtime_error("load_detector: unknown transform " + kind);
  }
  return std::make_unique<MalwareDetector>(
      features::FeaturePipeline(vocab, std::move(transform)),
      std::move(network));
}

}  // namespace mev::core
