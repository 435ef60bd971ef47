#include "core/persistence.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
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

TEST(Persistence, FutureNetworkVersionIsRejected) {
  auto& f = fixture();
  const std::string prefix = ::testing::TempDir() + "/mev_detector_version";
  save_detector(*f.trained.detector, prefix);
  // A well-formed network envelope from a newer format must not load.
  const std::string payload = runtime::read_envelope(
      prefix + ".net", 0x4d455644u, 1, "detector network");
  runtime::write_envelope_atomic(prefix + ".net", 0x4d455644u, 99, payload);
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

}  // namespace
}  // namespace mev::core
