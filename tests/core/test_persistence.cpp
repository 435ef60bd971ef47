#include "core/persistence.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/experiment_config.hpp"
#include "data/synthetic.hpp"
#include "runtime/atomic_file.hpp"

namespace mev::core {
namespace {

struct Fixture {
  const data::ApiVocab& vocab = data::ApiVocab::instance();
  data::GenerativeModel generator{vocab, data::GenerativeConfig{}};
  data::DatasetBundle bundle;
  DetectorTrainingResult trained;

  Fixture() {
    const auto config = ExperimentConfig::tiny();
    math::Rng rng(config.seed + 5);
    bundle = generator.generate_bundle(data::DatasetSpec::scaled(0.003, 16),
                                       rng);
    auto arch = config.target_architecture();
    auto tc = config.target_training();
    tc.epochs = 5;
    trained = train_detector(bundle, arch, tc, vocab);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Persistence, RoundTripPreservesVerdicts) {
  auto& f = fixture();
  const std::string prefix = ::testing::TempDir() + "/mev_detector";
  save_detector(*f.trained.detector, prefix);
  auto loaded = load_detector(prefix, f.vocab);
  ASSERT_NE(loaded, nullptr);

  nn::InferenceSession session_a = f.trained.detector->make_session();
  nn::InferenceSession session_b = loaded->make_session();
  math::Rng rng(77);
  for (int i = 0; i < 5; ++i) {
    const data::ApiLog log = f.generator.generate_log(
        i % 2, "roundtrip_" + std::to_string(i) + ".exe", rng);
    const Verdict a = f.trained.detector->scan(session_a, log);
    const Verdict b = loaded->scan(session_b, log);
    EXPECT_EQ(a.predicted_class, b.predicted_class);
    EXPECT_NEAR(a.malware_confidence, b.malware_confidence, 1e-6);
  }
}

TEST(Persistence, RoundTripPreservesFeatureTransform) {
  auto& f = fixture();
  const std::string prefix = ::testing::TempDir() + "/mev_detector2";
  save_detector(*f.trained.detector, prefix);
  auto loaded = load_detector(prefix, f.vocab);
  math::Rng rng(78);
  const auto counts = f.generator.generate_counts(data::kMalwareLabel, rng);
  math::Matrix m(1, counts.size());
  m.set_row(0, counts);
  EXPECT_EQ(f.trained.detector->features_of_counts(m),
            loaded->features_of_counts(m));
}

TEST(Persistence, MissingFilesThrow) {
  auto& f = fixture();
  EXPECT_THROW(load_detector("/nonexistent/prefix", f.vocab),
               std::runtime_error);
}

TEST(Persistence, CorruptTransformThrows) {
  auto& f = fixture();
  const std::string prefix = ::testing::TempDir() + "/mev_detector3";
  save_detector(*f.trained.detector, prefix);
  // Corrupt the transform file header.
  {
    std::ofstream ts(prefix + ".transform");
    ts << "mystery\n";
  }
  EXPECT_THROW(load_detector(prefix, f.vocab), std::runtime_error);
}

TEST(Persistence, TruncatedNetworkIsRejected) {
  auto& f = fixture();
  const std::string prefix = ::testing::TempDir() + "/mev_detector_trunc";
  save_detector(*f.trained.detector, prefix);
  const auto size = std::filesystem::file_size(prefix + ".net");
  std::filesystem::resize_file(prefix + ".net", size / 2);
  EXPECT_THROW(load_detector(prefix, f.vocab), std::runtime_error);
}

TEST(Persistence, FlippedByteFailsChecksum) {
  auto& f = fixture();
  const std::string prefix = ::testing::TempDir() + "/mev_detector_flip";
  save_detector(*f.trained.detector, prefix);
  // Flip one byte deep inside the payload (past the 24-byte header).
  std::fstream file(prefix + ".net",
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(64);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(64);
  file.write(&byte, 1);
  file.close();
  EXPECT_THROW(load_detector(prefix, f.vocab), std::runtime_error);
}

TEST(Persistence, WrongMagicIsRejected) {
  auto& f = fixture();
  const std::string prefix = ::testing::TempDir() + "/mev_detector_magic";
  save_detector(*f.trained.detector, prefix);
  // A well-formed envelope of the wrong type must not load as a network.
  const std::string payload =
      runtime::read_envelope(prefix + ".transform", 0x4d455654u, 1,
                            "feature transform");
  runtime::write_envelope_atomic(prefix + ".net", 0x4d455654u, 1, payload);
  EXPECT_THROW(load_detector(prefix, f.vocab), std::runtime_error);
}

TEST(Persistence, SaveLeavesNoTempFiles) {
  auto& f = fixture();
  const std::string dir = ::testing::TempDir() + "/mev_notmp";
  std::filesystem::create_directories(dir);
  save_detector(*f.trained.detector, dir + "/det");
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
}

TEST(Persistence, CheckpointRoundTrips) {
  BlackBoxCheckpoint ckpt;
  ckpt.config_fingerprint = 0xfeedbeefu;
  ckpt.next_round = 3;
  ckpt.finished = false;
  ckpt.total_queries = 112;
  ckpt.counts = math::Matrix(4, 3);
  for (std::size_t i = 0; i < ckpt.counts.size(); ++i)
    ckpt.counts.data()[i] = static_cast<float>(i);
  BlackBoxRoundStats stats;
  stats.dataset_rows = 16;
  stats.oracle_queries = 48;
  stats.oracle_agreement = 0.875;
  stats.resilience.retries = 7;
  stats.resilience.backoff_ms = 1234;
  stats.cache_hits = 5;
  stats.label_us = 1500;
  stats.train_us = 98765;
  stats.augment_us = 222;
  ckpt.rounds = {stats};
  nn::MlpConfig arch;
  arch.dims = {3, 8, 2};
  arch.seed = 11;
  ckpt.substitute = nn::make_mlp(arch);
  ckpt.attacker_transform.fit(ckpt.counts);
  ckpt.cache_rows = ckpt.counts;
  ckpt.cache_labels = {0, 1, 1, 0};

  const std::string path = ::testing::TempDir() + "/mev_ckpt_roundtrip";
  save_blackbox_checkpoint(ckpt, path);
  const BlackBoxCheckpoint loaded = load_blackbox_checkpoint(path);

  EXPECT_EQ(loaded.config_fingerprint, ckpt.config_fingerprint);
  EXPECT_EQ(loaded.next_round, 3u);
  EXPECT_FALSE(loaded.finished);
  EXPECT_EQ(loaded.total_queries, 112u);
  EXPECT_EQ(loaded.counts, ckpt.counts);
  ASSERT_EQ(loaded.rounds.size(), 1u);
  EXPECT_EQ(loaded.rounds[0].dataset_rows, 16u);
  EXPECT_EQ(loaded.rounds[0].oracle_queries, 48u);
  EXPECT_EQ(loaded.rounds[0].oracle_agreement, 0.875);
  EXPECT_EQ(loaded.rounds[0].resilience.retries, 7u);
  EXPECT_EQ(loaded.rounds[0].resilience.backoff_ms, 1234u);
  EXPECT_EQ(loaded.rounds[0].cache_hits, 5u);
  EXPECT_EQ(loaded.rounds[0].label_us, 1500u);
  EXPECT_EQ(loaded.rounds[0].train_us, 98765u);
  EXPECT_EQ(loaded.rounds[0].augment_us, 222u);
  EXPECT_EQ(loaded.cache_rows, ckpt.cache_rows);
  EXPECT_EQ(loaded.cache_labels, ckpt.cache_labels);
  EXPECT_TRUE(loaded.attacker_transform.fitted());
  EXPECT_EQ(loaded.attacker_transform.dim(), 3u);

  std::ostringstream a, b;
  nn::save_network(ckpt.substitute, a);
  nn::save_network(loaded.substitute, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Persistence, MissingCheckpointThrows) {
  EXPECT_THROW(load_blackbox_checkpoint("/nonexistent/ckpt"),
               std::runtime_error);
}

// Builds a minimal saveable checkpoint with one round of stats.
BlackBoxCheckpoint tiny_checkpoint() {
  BlackBoxCheckpoint ckpt;
  ckpt.config_fingerprint = 0x1234u;
  ckpt.next_round = 1;
  ckpt.total_queries = 16;
  ckpt.counts = math::Matrix(2, 3);
  BlackBoxRoundStats stats;
  stats.dataset_rows = 16;
  stats.oracle_queries = 16;
  stats.label_us = 10;
  stats.train_us = 20;
  stats.augment_us = 30;
  ckpt.rounds = {stats};
  nn::MlpConfig arch;
  arch.dims = {3, 4, 2};
  ckpt.substitute = nn::make_mlp(arch);
  ckpt.attacker_transform.fit(ckpt.counts);
  ckpt.cache_rows = math::Matrix(0, 0);
  return ckpt;
}

constexpr std::uint32_t kCkptMagic = 0x4d455643u;  // "MEVC"

// A version-1 checkpoint (written before the per-round phase durations
// existed) must still load, with the durations defaulting to zero. The
// v1 payload is reconstructed by byte surgery on a v2 file: the fixed
// 33-byte preamble (fingerprint, next_round, finished, total_queries,
// round count) is followed by the round-stats record, whose v2 form ends
// with the three appended u64 duration fields — dropping those 24 bytes
// yields the exact v1 layout.
TEST(Persistence, VersionOneCheckpointLoadsWithZeroDurations) {
  const std::string path = ::testing::TempDir() + "/mev_ckpt_v1";
  save_blackbox_checkpoint(tiny_checkpoint(), path);

  std::uint32_t version = 0;
  std::string payload = runtime::read_envelope_versioned(
      path, kCkptMagic, 1, 2, version, "black-box checkpoint");
  ASSERT_EQ(version, 2u);
  const std::size_t kPreamble = 33;   // 4 u64 fields + 1 u8 flag
  const std::size_t kV1Record = 104;  // 13 8-byte stats fields
  payload.erase(kPreamble + kV1Record, 24);
  runtime::write_envelope_atomic(path, kCkptMagic, 1, payload);

  const BlackBoxCheckpoint loaded = load_blackbox_checkpoint(path);
  ASSERT_EQ(loaded.rounds.size(), 1u);
  EXPECT_EQ(loaded.rounds[0].dataset_rows, 16u);
  EXPECT_EQ(loaded.rounds[0].oracle_queries, 16u);
  EXPECT_EQ(loaded.rounds[0].label_us, 0u);
  EXPECT_EQ(loaded.rounds[0].train_us, 0u);
  EXPECT_EQ(loaded.rounds[0].augment_us, 0u);
  EXPECT_EQ(loaded.config_fingerprint, 0x1234u);
}

TEST(Persistence, FutureCheckpointVersionIsRejected) {
  const std::string path = ::testing::TempDir() + "/mev_ckpt_future";
  save_blackbox_checkpoint(tiny_checkpoint(), path);
  std::uint32_t version = 0;
  const std::string payload = runtime::read_envelope_versioned(
      path, kCkptMagic, 1, 2, version, "black-box checkpoint");
  runtime::write_envelope_atomic(path, kCkptMagic, 99, payload);
  EXPECT_THROW(load_blackbox_checkpoint(path), std::runtime_error);
}

}  // namespace
}  // namespace mev::core
