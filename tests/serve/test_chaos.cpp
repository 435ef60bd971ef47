// Chaos harness: the ModelFaultInjector itself, and the service's core
// robustness invariant under every built-in fault profile — each
// submitted request completes exactly once with verdicts or a typed
// rejection, worker threads survive throwing models, and the service
// accepts work again after the fault clears.
//
// Seeds come from MEV_CHAOS_SEED when set (the CI chaos job sweeps
// several), so a failing seed reproduces locally with
//   MEV_CHAOS_SEED=<n> ./test_serve --gtest_filter='Chaos*'
#include "serve/chaos.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "data/api_vocab.hpp"
#include "features/transform.hpp"
#include "math/rng.hpp"
#include "runtime/clock.hpp"
#include "serve/scoring_service.hpp"

namespace mev::serve {
namespace {

constexpr std::size_t kDim = data::kNumApiFeatures;

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("MEV_CHAOS_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 0x5EEDULL;
}

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

struct Fixture {
  features::FeaturePipeline pipeline = make_pipeline(7);
  std::shared_ptr<nn::Network> network = make_network(11);

  ScoringService make_service(ServiceConfig config) {
    return ScoringService(pipeline, network, config);
  }
};

// ---------------------------------------------------------------------------
// Injector unit tests (FakeClock, no service).

TEST(ModelFaultInjector, NoneProfileIsTransparent) {
  runtime::FakeClock clock;
  ModelFaultInjector injector(ModelFaultProfile::none(), &clock);
  std::vector<core::Verdict> verdicts(3);
  for (int i = 0; i < 50; ++i) {
    injector.pre_scan();
    EXPECT_NO_THROW(injector.post_scan(verdicts));
  }
  EXPECT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(injector.injected().faults(), 0u);
  EXPECT_EQ(injector.injected().batches, 50u);
  EXPECT_EQ(clock.now_ms(), 0u);  // no injected latency
}

TEST(ModelFaultInjector, RatesAreSeededAndRoughlyHonored) {
  runtime::FakeClock clock;
  ModelFaultProfile profile = ModelFaultProfile::throwing();
  profile.seed = chaos_seed();
  ModelFaultInjector injector(profile, &clock);
  std::size_t threw = 0;
  std::vector<core::Verdict> verdicts(2);
  for (int i = 0; i < 400; ++i) {
    injector.pre_scan();
    try {
      injector.post_scan(verdicts);
    } catch (const std::runtime_error& e) {
      ++threw;
      EXPECT_NE(std::string(e.what()).find(profile.name), std::string::npos);
    }
  }
  EXPECT_EQ(injector.injected().throws, threw);
  // 30% nominal; a seeded binomial(400, 0.3) stays comfortably in range.
  EXPECT_GT(threw, 60u);
  EXPECT_LT(threw, 200u);
}

TEST(ModelFaultInjector, StallBurstSleepsThenSubsides) {
  runtime::FakeClock clock;
  ModelFaultInjector injector(ModelFaultProfile::stalling(), &clock);
  const std::uint64_t per_stall = injector.profile().stall_ms;
  ASSERT_GT(per_stall, 0u);
  injector.pre_scan();
  EXPECT_EQ(clock.now_ms(), per_stall);
  injector.pre_scan();
  EXPECT_EQ(clock.now_ms(), 2 * per_stall);
  injector.pre_scan();  // burst spent: no further latency
  EXPECT_EQ(clock.now_ms(), 2 * per_stall);
  EXPECT_EQ(injector.injected().stalled, 2u);
}

// ---------------------------------------------------------------------------
// Deterministic service-level fault handling (manual pump + FakeClock).

TEST(Chaos, ThrowingModelFailsBatchTypedAndServiceRecovers) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  ModelFaultProfile always_throws;
  always_throws.name = "always-throws";
  always_throws.throw_rate = 1.0;
  always_throws.seed = chaos_seed();
  service.set_model_fault(always_throws);

  auto a = service.submit(random_counts(2, 1));
  auto b = service.submit(random_counts(3, 2));
  service.pump();
  EXPECT_EQ(a.get().rejected, RejectReason::kInternalError);
  EXPECT_EQ(b.get().rejected, RejectReason::kInternalError);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batch_failures, 1u);  // one batch, both requests in it
  EXPECT_EQ(stats.rejected_internal, 2u);
  EXPECT_EQ(stats.completed_rows, 0u);

  // Clearing the fault is a hot swap: the very next batch scores clean.
  service.clear_model_fault();
  auto c = service.submit(random_counts(2, 3));
  service.pump();
  EXPECT_TRUE(c.get().ok());
  EXPECT_EQ(service.stats().completed_rows, 2u);
}

TEST(Chaos, GarbledVerdictCountFailsBatchInsteadOfMisattributing) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  ModelFaultProfile garble;
  garble.name = "always-garbles";
  garble.garble_rate = 1.0;
  garble.seed = chaos_seed();
  service.set_model_fault(garble);

  // Two single-row requests in one batch: a verdict vector one entry
  // short must fail BOTH typed, not hand request B request A's verdict.
  auto a = service.submit(random_counts(1, 4));
  auto b = service.submit(random_counts(1, 5));
  service.pump();
  EXPECT_EQ(a.get().rejected, RejectReason::kInternalError);
  EXPECT_EQ(b.get().rejected, RejectReason::kInternalError);
  EXPECT_EQ(service.stats().batch_failures, 1u);
  EXPECT_EQ(service.stats().rejected_internal, 2u);

  service.clear_model_fault();
  auto c = service.submit(random_counts(1, 6));
  service.pump();
  EXPECT_TRUE(c.get().ok());
}

TEST(Chaos, SlowModelExpiresDeadlinePostDequeue) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  ModelFaultProfile slow;
  slow.name = "always-slow";
  slow.slow_rate = 1.0;
  slow.slow_ms = 50;
  slow.seed = chaos_seed();
  service.set_model_fault(slow);

  SubmitOptions options;
  options.deadline_ms = 10;  // expires during the injected 50ms slowdown
  auto doomed = service.submit(random_counts(2, 7), options);
  auto survivor = service.submit(random_counts(1, 8));
  service.pump();

  // The injected latency lands between batch formation and inference, so
  // the post-dequeue gate catches it — the expired rows never reach the
  // model, the live one still scores.
  EXPECT_EQ(doomed.get().rejected, RejectReason::kDeadline);
  EXPECT_TRUE(survivor.get().ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired_post_dequeue, 1u);
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.completed_rows, 1u);
}

TEST(Chaos, ThrowingCallbackIsContainedAndCounted) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  static std::atomic<int> calls{0};
  calls.store(0);
  const auto throwing_callback = +[](void*, ScoreResult&&) {
    calls.fetch_add(1);
    throw std::runtime_error("callback exploded");
  };
  service.submit_with_callback(random_counts(1, 9), {}, throwing_callback,
                               nullptr);
  service.pump();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(service.stats().callback_errors, 1u);

  // The pump survived the throw; the service still scores.
  auto next = service.submit(random_counts(1, 10));
  service.pump();
  EXPECT_TRUE(next.get().ok());
  EXPECT_EQ(service.stats().completed_rows, 2u);
}

// ---------------------------------------------------------------------------
// The headline invariant, threaded: for EVERY built-in profile, every
// submission completes exactly once (verdicts or typed rejection), the
// worker pool survives, and the service accepts work after the fault
// clears.

TEST(Chaos, ExactlyOnceUnderEveryBuiltinProfile) {
  Fixture f;
  for (ModelFaultProfile profile : ModelFaultProfile::builtin_profiles()) {
    SCOPED_TRACE(profile.name);
    profile.seed = chaos_seed();
    // Keep the stall burst short enough for a brisk test, long enough to
    // wedge a worker for real.
    if (profile.stall_ms > 50) profile.stall_ms = 50;
    if (profile.slow_ms > 10) profile.slow_ms = 10;

    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.max_batch_rows = 4;
    cfg.watchdog.enabled = true;
    cfg.watchdog.stall_ms = 20;
    cfg.watchdog.poll_ms = 5;
    auto service = f.make_service(cfg);
    service.set_model_fault(profile);

    constexpr int kRequests = 60;
    std::vector<ScoreFuture> futures;
    futures.reserve(kRequests);
    std::atomic<int> callback_completions{0};
    for (int i = 0; i < kRequests; ++i) {
      if (i % 3 == 2) {
        // Every third submission exercises the callback path.
        service.submit_with_callback(
            random_counts(1, 1000 + static_cast<std::uint64_t>(i)), {},
            +[](void* ctx, ScoreResult&&) {
              static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
            },
            &callback_completions);
      } else {
        futures.push_back(service.submit(
            random_counts(1, 1000 + static_cast<std::uint64_t>(i))));
      }
    }

    // Every future resolves — scored or typed — and none hang or double.
    std::size_t ok = 0;
    std::size_t internal = 0;
    for (auto& future : futures) {
      ScoreResult result = future.get();
      if (result.ok()) {
        EXPECT_EQ(result.verdicts.size(), 1u);
        ++ok;
      } else {
        EXPECT_EQ(result.rejected, RejectReason::kInternalError)
            << to_string(result.rejected);
        ++internal;
      }
    }
    EXPECT_EQ(ok + internal, futures.size());

    // Callback submissions drained too (workers may still be finishing).
    const int expected_callbacks = kRequests / 3;
    for (int spin = 0;
         spin < 400 && callback_completions.load() < expected_callbacks;
         ++spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(callback_completions.load(), expected_callbacks);

    // Threads survived every injected fault: the fault clears and the
    // same pool scores clean work.
    service.clear_model_fault();
    auto after = service.submit(random_counts(2, 42));
    EXPECT_TRUE(after.get().ok());

    service.shutdown(/*drain=*/true);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.accepted_requests,
              stats.completed_requests + stats.rejected_internal);
  }
}

}  // namespace
}  // namespace mev::serve
