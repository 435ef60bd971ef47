// ServiceOracle: the black-box oracle path routed through the scoring
// service must be observationally identical to querying the detector
// directly — same labels, and a bit-identical BlackBoxResult (the PR 2
// equivalence idiom applied to the serving layer).
#include "serve/service_oracle.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/blackbox.hpp"
#include "data/api_vocab.hpp"
#include "features/transform.hpp"
#include "math/rng.hpp"
#include "runtime/clock.hpp"
#include "runtime/oracle_error.hpp"
#include "runtime/resilient_oracle.hpp"
#include "serve/chaos.hpp"

namespace mev::serve {
namespace {

constexpr std::size_t kDim = data::kNumApiFeatures;

math::Matrix random_counts(std::size_t rows, std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix m(rows, kDim);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.poisson(3.0));
  return m;
}

struct Fixture {
  features::FeaturePipeline pipeline;
  std::shared_ptr<nn::Network> network;
  core::MalwareDetector detector;

  Fixture()
      : pipeline(data::ApiVocab::instance(),
                 [] {
                   auto t = std::make_unique<features::CountTransform>();
                   t->fit(random_counts(64, 7));
                   return t;
                 }()),
        network([] {
          nn::MlpConfig cfg;
          cfg.dims = {kDim, 16, 2};
          cfg.seed = 11;
          return std::make_shared<nn::Network>(nn::make_mlp(cfg));
        }()),
        detector(pipeline, network) {}
};

std::string network_bytes(const nn::Network& net) {
  std::ostringstream os;
  nn::save_network(net, os);
  return os.str();
}

TEST(ServiceOracle, LabelsMatchDetectorOracle) {
  Fixture f;
  ScoringService service(f.pipeline, f.network, ServiceConfig{});
  ServiceOracle via_service(service);
  core::DetectorOracle direct(f.detector);

  const math::Matrix counts = random_counts(37, 21);
  EXPECT_EQ(via_service.label_counts(counts), direct.label_counts(counts));
  EXPECT_EQ(via_service.queries(), 37u);
}

TEST(ServiceOracle, BlackBoxResultBitIdenticalToDirectOracle) {
  Fixture f;
  core::BlackBoxConfig cfg;
  cfg.substitute_architecture.dims = {kDim, 16, 2};
  cfg.substitute_architecture.seed = 4;
  cfg.training_per_round.epochs = 3;
  cfg.augmentation_rounds = 2;
  const math::Matrix seed = random_counts(16, 31);

  core::DetectorOracle direct(f.detector);
  const auto reference = core::run_blackbox_framework(direct, seed, cfg);

  ScoringService service(f.pipeline, f.network, ServiceConfig{});
  ServiceOracle oracle(service);
  const auto via_service = core::run_blackbox_framework(oracle, seed, cfg);

  ASSERT_EQ(via_service.rounds.size(), reference.rounds.size());
  for (std::size_t i = 0; i < reference.rounds.size(); ++i) {
    EXPECT_EQ(via_service.rounds[i].dataset_rows,
              reference.rounds[i].dataset_rows) << i;
    EXPECT_EQ(via_service.rounds[i].oracle_queries,
              reference.rounds[i].oracle_queries) << i;
    EXPECT_EQ(via_service.rounds[i].oracle_agreement,
              reference.rounds[i].oracle_agreement) << i;
  }
  EXPECT_EQ(via_service.total_queries, reference.total_queries);
  ASSERT_NE(via_service.substitute, nullptr);
  ASSERT_NE(reference.substitute, nullptr);
  EXPECT_EQ(network_bytes(*via_service.substitute),
            network_bytes(*reference.substitute));
}

TEST(ServiceOracle, QueueFullSurfacesAsTransientOracleError) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_queue_rows = 4;
  cfg.clock = &clock;
  ScoringService service(f.pipeline, f.network, cfg);
  ServiceOracle oracle(service);
  // More rows than the admission bound: rejected, mapped to a retryable
  // oracle fault (the resilience decorators can backoff-and-retry it).
  EXPECT_THROW(oracle.label_counts(random_counts(5, 41)),
               runtime::TransientOracleError);
}

TEST(ServiceOracle, ShutdownSurfacesAsPermanentOracleError) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  ScoringService service(f.pipeline, f.network, cfg);
  service.shutdown();
  ServiceOracle oracle(service);
  EXPECT_THROW(oracle.label_counts(random_counts(2, 42)),
               runtime::PermanentOracleError);
}

// The composition the header promises: a ServiceOracle inside a
// ResilientOracle gets its rejections retried. The model stalls 200 ms on
// each of the first two batches, past the 50 ms submission deadline, so
// the first two attempts come back as deadline rejections and the third
// scores.
TEST(ServiceOracle, DeadlineRejectionsAreRetriedByResilientOracle) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  ScoringService service(f.pipeline, f.network, cfg);
  service.set_model_fault(ModelFaultProfile::stalling());
  ServiceOracle via_service(service, /*deadline_ms=*/50);
  runtime::ResilientOracle oracle(via_service, &clock);
  core::DetectorOracle direct(f.detector);

  const math::Matrix counts = random_counts(9, 43);
  EXPECT_EQ(oracle.label_counts(counts), direct.label_counts(counts));
  EXPECT_EQ(oracle.stats().retries, 2u);
  EXPECT_EQ(oracle.queries(), counts.rows());
  EXPECT_EQ(service.stats().rejected_deadline, 2u);
}

}  // namespace
}  // namespace mev::serve
