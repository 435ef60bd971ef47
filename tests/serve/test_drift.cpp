// ScoreDrift: reference capture/freeze semantics, PSI against the
// sliding current window, reset on swap_model(), and the service wiring
// (stats() drift + SLO fields, the advisory — never 503 — fast-burn
// readiness reason), all deterministic under FakeClock.
#include "serve/drift.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "data/api_vocab.hpp"
#include "features/transform.hpp"
#include "math/rng.hpp"
#include "runtime/clock.hpp"
#include "serve/scoring_service.hpp"

namespace mev::serve {
namespace {

constexpr std::uint64_t kSecond = 1'000'000;
/// Scores that freeze the reference.
constexpr int kFreeze = static_cast<int>(kDriftReferenceMinCount);

TEST(ScoreDriftTest, PsiIsZeroWhileTheReferenceCaptures) {
  ScoreDrift drift;
  for (int i = 0; i < kFreeze - 1; ++i) drift.record(100, 0.1);
  EXPECT_FALSE(drift.reference_frozen());
  EXPECT_EQ(drift.reference_count(), kDriftReferenceMinCount - 1);
  // No baseline yet: even a wildly different current window reads 0.
  EXPECT_EQ(drift.psi(200), 0.0);
}

TEST(ScoreDriftTest, ReferenceFreezesAtMinCount) {
  ScoreDrift drift;
  for (int i = 0; i < kFreeze; ++i) drift.record(100, 0.1);
  EXPECT_TRUE(drift.reference_frozen());
  EXPECT_EQ(drift.reference_count(), kDriftReferenceMinCount);
  // Later records feed only the current window.
  drift.record(200, 0.9);
  EXPECT_EQ(drift.reference_count(), kDriftReferenceMinCount);
  const obs::ScoreBins reference = drift.reference();
  EXPECT_EQ(reference[obs::score_bin(0.1)], kDriftReferenceMinCount);
  EXPECT_EQ(reference[obs::score_bin(0.9)], 0u);
}

TEST(ScoreDriftTest, StableTrafficStaysBelowTheMinorThreshold) {
  ScoreDrift drift;
  for (int i = 0; i < kFreeze; ++i) drift.record(100, 0.1);
  // Same mix keeps flowing: PSI stays in the "stable" band (< 0.1).
  for (int i = 0; i < 50; ++i) drift.record(20 * kSecond, 0.1);
  EXPECT_LT(drift.psi(20 * kSecond + 1), 0.1);
}

TEST(ScoreDriftTest, ShiftedTrafficCrossesTheMajorThreshold) {
  ScoreDrift drift;
  for (int i = 0; i < kFreeze; ++i) drift.record(100, 0.1);
  // The probe mix flips to high-confidence scores; once the capture-era
  // records slide out of the 60 s current window, only the shifted
  // population remains.
  for (int i = 0; i < 50; ++i) drift.record(100 * kSecond, 0.95);
  EXPECT_GT(drift.psi(100 * kSecond + 1), 0.25);
}

TEST(ScoreDriftTest, ResetReferenceRecapturesFromFreshTraffic) {
  ScoreDrift drift;
  for (int i = 0; i < kFreeze; ++i) drift.record(100, 0.1);
  ASSERT_TRUE(drift.reference_frozen());
  drift.reset_reference();
  EXPECT_FALSE(drift.reference_frozen());
  EXPECT_EQ(drift.reference_count(), 0u);
  EXPECT_EQ(drift.psi(200), 0.0);
  // The new baseline is the post-reset mix; matching traffic is no drift.
  for (int i = 0; i < kFreeze; ++i) drift.record(200 * kSecond, 0.9);
  EXPECT_TRUE(drift.reference_frozen());
  for (int i = 0; i < 20; ++i) drift.record(210 * kSecond, 0.9);
  EXPECT_LT(drift.psi(210 * kSecond + 1), 0.1);
}

// ---------------------------------------------------------------------------
// Service wiring: drift + SLO surfaced through ScoringService.

constexpr std::size_t kDim = data::kNumApiFeatures;

math::Matrix random_counts(std::size_t rows, std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix m(rows, kDim);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.poisson(3.0));
  return m;
}

features::FeaturePipeline make_pipeline(std::uint64_t seed) {
  auto transform = std::make_unique<features::CountTransform>();
  transform->fit(random_counts(64, seed));
  return features::FeaturePipeline(data::ApiVocab::instance(),
                                   std::move(transform));
}

std::shared_ptr<nn::Network> make_network(std::uint64_t seed) {
  nn::MlpConfig cfg;
  cfg.dims = {kDim, 16, 2};
  cfg.seed = seed;
  return std::make_shared<nn::Network>(nn::make_mlp(cfg));
}

TEST(ServiceDriftTest, StatsCarryDriftAndSloFields) {
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  ScoringService service(make_pipeline(7), make_network(11), cfg);

  // The first request freezes the reference; replaying the exact same
  // rows makes the current window a 2x copy of the reference, so the
  // proportions match and PSI is pinned at 0.
  const math::Matrix rows = random_counts(kDriftReferenceMinCount, 42);
  for (int i = 0; i < 2; ++i) {
    ScoreFuture future = service.submit(rows);
    while (service.pump() > 0) {
    }
    ASSERT_TRUE(future.get().ok());
  }

  const ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.drift_reference_frozen);
  EXPECT_TRUE(service.drift().reference_frozen());
  EXPECT_LT(stats.score_psi, 0.01);
  // One clean request: no burn, full budget.
  EXPECT_DOUBLE_EQ(stats.slo_fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(stats.slo_slow_burn, 0.0);
  EXPECT_DOUBLE_EQ(stats.slo_budget_remaining, 1.0);
}

TEST(ServiceDriftTest, SwapModelResetsTheReference) {
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  ScoringService service(make_pipeline(7), make_network(11), cfg);

  ScoreFuture future =
      service.submit(random_counts(kDriftReferenceMinCount, 42));
  while (service.pump() > 0) {
  }
  ASSERT_TRUE(future.get().ok());
  ASSERT_TRUE(service.drift().reference_frozen());

  // A new model's confidences are a new baseline, not "drift".
  service.swap_model(make_pipeline(7), make_network(13));
  EXPECT_FALSE(service.drift().reference_frozen());
  EXPECT_EQ(service.drift().reference_count(), 0u);

  ScoreFuture after =
      service.submit(random_counts(kDriftReferenceMinCount, 43));
  while (service.pump() > 0) {
  }
  ASSERT_TRUE(after.get().ok());
  EXPECT_TRUE(service.drift().reference_frozen());
}

TEST(ServiceDriftTest, RejectionsBurnTheAvailabilityBudget) {
  runtime::FakeClock clock;
  clock.advance(10'000);  // t = 10 s so an absolute deadline can be "past"
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  ScoringService service(make_pipeline(7), make_network(11), cfg);

  // An already-expired absolute deadline rejects at admission; the
  // resolve path still records it against the availability SLO.
  SubmitOptions expired;
  expired.deadline_at_ms = 1;
  ScoreFuture future = service.submit(random_counts(2, 42), expired);
  EXPECT_EQ(future.get().rejected, RejectReason::kDeadline);

  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.slo_fast_burn, 14.4);  // 100% errors vs 99.9% objective
  EXPECT_LT(stats.slo_budget_remaining, 0.0);
}

TEST(ServiceDriftTest, FastBurnIsAdvisoryNeverNotReady) {
  runtime::FakeClock clock;
  clock.advance(10'000);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  ScoringService service(make_pipeline(7), make_network(11), cfg);
  ASSERT_EQ(service.readiness().reason, "ok");

  SubmitOptions expired;
  expired.deadline_at_ms = 1;
  for (int i = 0; i < 5; ++i) {
    ScoreFuture future = service.submit(random_counts(1, 42), expired);
    EXPECT_EQ(future.get().rejected, RejectReason::kDeadline);
  }
  ASSERT_TRUE(service.slo().snapshot(clock.now_us()).fast_burn_alert);

  // The alert annotates /readyz but MUST NOT flip it: burn-rate paging is
  // an operator signal, and flapping readiness under error bursts would
  // amplify the outage. The overload controller owns 503.
  const obs::Readiness readiness = service.readiness();
  EXPECT_TRUE(readiness.ready);
  EXPECT_NE(readiness.reason.find("advisory"), std::string::npos);
  EXPECT_NE(readiness.reason.find("slo fast burn"), std::string::npos);
}

}  // namespace
}  // namespace mev::serve
