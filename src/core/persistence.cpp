#include "core/persistence.hpp"

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "features/transform.hpp"
#include "runtime/atomic_file.hpp"

namespace mev::core {

namespace {

constexpr std::uint32_t kNetworkMagic = 0x4d455644;    // "MEVD"
constexpr std::uint32_t kTransformMagic = 0x4d455654;  // "MEVT"
constexpr std::uint32_t kCheckpointMagic = 0x4d455643; // "MEVC"
constexpr std::uint32_t kPersistVersion = 1;
// Checkpoint payload versions. v2 appended the per-round phase durations
// (label_us/train_us/augment_us) to each round-stats record; v1 files
// still load, with durations defaulting to zero.
constexpr std::uint32_t kCheckpointVersionMin = 1;
constexpr std::uint32_t kCheckpointVersion = 2;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is, const char* what) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is)
    throw std::runtime_error(std::string("load checkpoint: truncated ") +
                             what);
  return v;
}

void write_matrix(std::ostream& os, const math::Matrix& m) {
  write_pod<std::uint64_t>(os, m.rows());
  write_pod<std::uint64_t>(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
}

math::Matrix read_matrix(std::istream& is, const char* what) {
  const auto rows = read_pod<std::uint64_t>(is, what);
  const auto cols = read_pod<std::uint64_t>(is, what);
  if (rows > (1u << 24) || cols > (1u << 24))
    throw std::runtime_error(
        std::string("load checkpoint: implausible shape for ") + what);
  math::Matrix m(static_cast<std::size_t>(rows),
                 static_cast<std::size_t>(cols));
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!is)
    throw std::runtime_error(std::string("load checkpoint: truncated ") +
                             what);
  return m;
}

void write_round_stats(std::ostream& os, const BlackBoxRoundStats& s) {
  write_pod<std::uint64_t>(os, s.dataset_rows);
  write_pod<std::uint64_t>(os, s.oracle_queries);
  write_pod<double>(os, s.oracle_agreement);
  write_pod<std::uint64_t>(os, s.resilience.calls);
  write_pod<std::uint64_t>(os, s.resilience.attempts);
  write_pod<std::uint64_t>(os, s.resilience.retries);
  write_pod<std::uint64_t>(os, s.resilience.timeouts);
  write_pod<std::uint64_t>(os, s.resilience.garbled_batches);
  write_pod<std::uint64_t>(os, s.resilience.breaker_trips);
  write_pod<std::uint64_t>(os, s.resilience.bisections);
  write_pod<std::uint64_t>(os, s.resilience.failed_queries);
  write_pod<std::uint64_t>(os, s.resilience.backoff_ms);
  write_pod<std::uint64_t>(os, s.cache_hits);
  write_pod<std::uint64_t>(os, s.label_us);
  write_pod<std::uint64_t>(os, s.train_us);
  write_pod<std::uint64_t>(os, s.augment_us);
}

BlackBoxRoundStats read_round_stats(std::istream& is,
                                    std::uint32_t version) {
  BlackBoxRoundStats s;
  s.dataset_rows = read_pod<std::uint64_t>(is, "round stats");
  s.oracle_queries = read_pod<std::uint64_t>(is, "round stats");
  s.oracle_agreement = read_pod<double>(is, "round stats");
  s.resilience.calls = read_pod<std::uint64_t>(is, "round stats");
  s.resilience.attempts = read_pod<std::uint64_t>(is, "round stats");
  s.resilience.retries = read_pod<std::uint64_t>(is, "round stats");
  s.resilience.timeouts = read_pod<std::uint64_t>(is, "round stats");
  s.resilience.garbled_batches = read_pod<std::uint64_t>(is, "round stats");
  s.resilience.breaker_trips = read_pod<std::uint64_t>(is, "round stats");
  s.resilience.bisections = read_pod<std::uint64_t>(is, "round stats");
  s.resilience.failed_queries = read_pod<std::uint64_t>(is, "round stats");
  s.resilience.backoff_ms = read_pod<std::uint64_t>(is, "round stats");
  s.cache_hits = read_pod<std::uint64_t>(is, "round stats");
  if (version >= 2) {
    s.label_us = read_pod<std::uint64_t>(is, "round stats");
    s.train_us = read_pod<std::uint64_t>(is, "round stats");
    s.augment_us = read_pod<std::uint64_t>(is, "round stats");
  }
  return s;
}

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

void save_blackbox_checkpoint(const BlackBoxCheckpoint& checkpoint,
                              const std::string& path) {
  std::ostringstream os(std::ios::binary);
  write_pod<std::uint64_t>(os, checkpoint.config_fingerprint);
  write_pod<std::uint64_t>(os, checkpoint.next_round);
  write_pod<std::uint8_t>(os, checkpoint.finished ? 1 : 0);
  write_pod<std::uint64_t>(os, checkpoint.total_queries);
  write_pod<std::uint64_t>(os, checkpoint.rounds.size());
  for (const auto& round : checkpoint.rounds) write_round_stats(os, round);
  write_matrix(os, checkpoint.counts);
  write_matrix(os, checkpoint.cache_rows);
  write_pod<std::uint64_t>(os, checkpoint.cache_labels.size());
  for (int label : checkpoint.cache_labels)
    write_pod<std::int32_t>(os, label);
  nn::save_network(checkpoint.substitute, os);
  // The text-format transform goes last: its formatted reads stop at the
  // final value and would desynchronize any binary field written after it.
  checkpoint.attacker_transform.save(os);
  if (!os)
    throw std::runtime_error("save_blackbox_checkpoint: serialization failure");
  runtime::write_envelope_atomic(path, kCheckpointMagic, kCheckpointVersion,
                                 os.str());
}

BlackBoxCheckpoint load_blackbox_checkpoint(const std::string& path) {
  std::uint32_t version = 0;
  std::istringstream is(
      runtime::read_envelope_versioned(path, kCheckpointMagic,
                                       kCheckpointVersionMin,
                                       kCheckpointVersion, version,
                                       "black-box checkpoint"),
      std::ios::binary);
  BlackBoxCheckpoint c;
  c.config_fingerprint = read_pod<std::uint64_t>(is, "fingerprint");
  c.next_round =
      static_cast<std::size_t>(read_pod<std::uint64_t>(is, "round index"));
  c.finished = read_pod<std::uint8_t>(is, "finished flag") != 0;
  c.total_queries =
      static_cast<std::size_t>(read_pod<std::uint64_t>(is, "query count"));
  const auto n_rounds = read_pod<std::uint64_t>(is, "round count");
  c.rounds.reserve(static_cast<std::size_t>(n_rounds));
  for (std::uint64_t i = 0; i < n_rounds; ++i)
    c.rounds.push_back(read_round_stats(is, version));
  c.counts = read_matrix(is, "dataset");
  c.cache_rows = read_matrix(is, "query cache");
  const auto n_labels = read_pod<std::uint64_t>(is, "cache label count");
  c.cache_labels.reserve(static_cast<std::size_t>(n_labels));
  for (std::uint64_t i = 0; i < n_labels; ++i)
    c.cache_labels.push_back(read_pod<std::int32_t>(is, "cache label"));
  c.substitute = nn::load_network(is);
  c.attacker_transform = features::CountTransform::load(is);
  return c;
}

}  // namespace mev::core
