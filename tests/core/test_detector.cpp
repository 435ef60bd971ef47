#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/experiment_config.hpp"
#include "data/synthetic.hpp"
#include "features/transform.hpp"

namespace mev::core {
namespace {

struct Fixture {
  const data::ApiVocab& vocab = data::ApiVocab::instance();
  data::GenerativeModel generator{vocab, data::GenerativeConfig{}};
  data::DatasetBundle bundle;
  DetectorTrainingResult trained;

  Fixture() {
    const auto config = ExperimentConfig::tiny();
    math::Rng rng(config.seed);
    bundle = generator.generate_bundle(config.dataset_spec(), rng);
    trained = train_detector(bundle, config.target_architecture(),
                             config.target_training(), vocab);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Detector, TrainingProducesWorkingDetector) {
  auto& f = fixture();
  ASSERT_NE(f.trained.detector, nullptr);
  const math::Matrix val_features =
      f.trained.detector->features_of_counts(f.bundle.validation.counts);
  EXPECT_GT(nn::accuracy(f.trained.detector->network(), val_features,
                         f.bundle.validation.labels),
            0.6);
}

TEST(Detector, FeatureMatricesMatchSplits) {
  auto& f = fixture();
  EXPECT_EQ(f.trained.train_features.rows(), f.bundle.train.size());
  EXPECT_EQ(f.trained.test_features.rows(), f.bundle.test.size());
  EXPECT_EQ(f.trained.train_features.cols(), data::kNumApiFeatures);
}

TEST(Detector, ScanLogMatchesScanCounts) {
  auto& f = fixture();
  math::Rng rng(99);
  const data::ApiLog log =
      f.generator.generate_log(data::kMalwareLabel, "x.exe", rng);
  nn::InferenceSession session = f.trained.detector->make_session();
  const Verdict via_log = f.trained.detector->scan(session, log);
  math::Matrix counts(1, f.vocab.size());
  counts.set_row(0, f.trained.detector->pipeline().extractor().extract(log));
  const Verdict via_counts =
      f.trained.detector->scan_counts(session, counts).front();
  EXPECT_EQ(via_log.predicted_class, via_counts.predicted_class);
  EXPECT_NEAR(via_log.malware_confidence, via_counts.malware_confidence, 1e-6);
}

TEST(Detector, VerdictConsistentWithConfidence) {
  auto& f = fixture();
  nn::InferenceSession session = f.trained.detector->make_session();
  const auto verdicts =
      f.trained.detector->scan_features(session, f.trained.test_features);
  for (const auto& v : verdicts) {
    if (v.malware_confidence > 0.5) {
      EXPECT_TRUE(v.is_malware());
    } else if (v.malware_confidence < 0.5) {
      EXPECT_FALSE(v.is_malware());
    }
  }
}

TEST(Detector, DetectsMostMalwareAndPassesMostClean) {
  auto& f = fixture();
  nn::InferenceSession session = f.trained.detector->make_session();
  const auto verdicts =
      f.trained.detector->scan_features(session, f.trained.test_features);
  std::size_t tp = 0, tn = 0, pos = 0, neg = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (f.bundle.test.labels[i] == data::kMalwareLabel) {
      ++pos;
      tp += verdicts[i].is_malware() ? 1 : 0;
    } else {
      ++neg;
      tn += verdicts[i].is_malware() ? 0 : 1;
    }
  }
  // Tiny scale (570 training rows) under distribution drift: thresholds
  // are intentionally loose; the fast-scale benches verify paper-level
  // rates.
  EXPECT_GT(static_cast<double>(tp) / pos, 0.7);
  EXPECT_GT(static_cast<double>(tn) / neg, 0.4);
}

TEST(Detector, ConcurrentScanCountsOnSharedNetwork) {
  // One shared detector/network, one session per thread: every thread must
  // reproduce the serial verdicts exactly.
  auto& f = fixture();
  const MalwareDetector& detector = *f.trained.detector;
  const math::Matrix& counts = f.trained.test_features;
  nn::InferenceSession serial = detector.make_session();
  const auto want = detector.scan_features(serial, counts);

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Verdict>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      nn::InferenceSession session = detector.make_session(counts.rows());
      for (int repeat = 0; repeat < 10; ++repeat)
        got[t] = detector.scan_features(session, counts);
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), want.size()) << "thread " << t;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[t][i].predicted_class, want[i].predicted_class);
      EXPECT_EQ(got[t][i].malware_confidence, want[i].malware_confidence);
    }
  }
}

TEST(Detector, ConstructorRejectsMismatchedPipeline) {
  auto& f = fixture();
  nn::MlpConfig cfg;
  cfg.dims = {10, 4, 2};  // wrong input width
  auto tiny_net = std::make_shared<nn::Network>(nn::make_mlp(cfg));
  EXPECT_THROW(
      MalwareDetector(f.trained.detector->pipeline(), tiny_net),
      std::invalid_argument);
  EXPECT_THROW(MalwareDetector(f.trained.detector->pipeline(), nullptr),
               std::invalid_argument);
}

TEST(ExperimentConfig, FromNameRoundTrip) {
  EXPECT_EQ(ExperimentConfig::from_name("tiny").scale, ExperimentScale::kTiny);
  EXPECT_EQ(ExperimentConfig::from_name("fast").scale, ExperimentScale::kFast);
  EXPECT_EQ(ExperimentConfig::from_name("full").scale, ExperimentScale::kFull);
  EXPECT_THROW(ExperimentConfig::from_name("huge"), std::invalid_argument);
}

TEST(ExperimentConfig, FullScaleMatchesPaper) {
  const auto config = ExperimentConfig::full();
  EXPECT_EQ(config.dataset_spec().train_total(), 57170u);
  const auto sub = config.substitute_architecture();
  // Table IV: 491-1200-1500-1300-2.
  ASSERT_EQ(sub.dims.size(), 5u);
  EXPECT_EQ(sub.dims[0], 491u);
  EXPECT_EQ(sub.dims[1], 1200u);
  EXPECT_EQ(sub.dims[2], 1500u);
  EXPECT_EQ(sub.dims[3], 1300u);
  EXPECT_EQ(sub.dims[4], 2u);
  const auto tc = config.substitute_training();
  EXPECT_EQ(tc.epochs, 1000u);
  EXPECT_EQ(tc.batch_size, 256u);
  EXPECT_FLOAT_EQ(tc.learning_rate, 0.001f);
}

TEST(ExperimentConfig, SubstituteIsFiveLayerAtEveryScale) {
  for (const char* name : {"tiny", "fast", "full"}) {
    const auto config = ExperimentConfig::from_name(name);
    EXPECT_EQ(config.substitute_architecture().dims.size(), 5u) << name;
    EXPECT_EQ(config.target_architecture().dims.size(), 4u) << name;
  }
}

}  // namespace
}  // namespace mev::core
