// Watchdog stall detection: deterministic threshold tests via manual
// poll() with fake timestamps, the monitor thread against the real
// clock, and the service-level story — a wedged worker is detected,
// siblings keep serving, and shutdown with a stalled worker still
// drains every future.
#include "serve/watchdog.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "data/api_vocab.hpp"
#include "features/transform.hpp"
#include "math/rng.hpp"
#include "serve/chaos.hpp"
#include "serve/scoring_service.hpp"

namespace mev::serve {
namespace {

WatchdogConfig manual_config(std::uint64_t stall_ms = 30) {
  WatchdogConfig cfg;
  cfg.enabled = false;  // no monitor thread: tests drive poll() by hand
  cfg.stall_ms = stall_ms;
  return cfg;
}

TEST(Watchdog, IdleWorkerNeverStalls) {
  Watchdog watchdog(1, manual_config());
  watchdog.set_idle(0, true);
  EXPECT_EQ(watchdog.poll(0), 0u);
  EXPECT_EQ(watchdog.poll(100), 0u);
  EXPECT_EQ(watchdog.poll(10'000), 0u);
  EXPECT_FALSE(watchdog.stalled(0));
  EXPECT_EQ(watchdog.stall_events(), 0u);
}

TEST(Watchdog, HeartbeatKeepsWorkerHealthy) {
  Watchdog watchdog(1, manual_config());
  for (std::uint64_t now = 0; now <= 500; now += 10) {
    watchdog.heartbeat(0);
    EXPECT_EQ(watchdog.poll(now), 0u) << "at t=" << now;
  }
  EXPECT_EQ(watchdog.stall_events(), 0u);
}

TEST(Watchdog, StallNeedsTheFullWindow) {
  Watchdog watchdog(1, manual_config(30));
  EXPECT_EQ(watchdog.poll(0), 0u);  // first sample
  EXPECT_EQ(watchdog.poll(29), 0u);
  EXPECT_FALSE(watchdog.stalled(0));
  EXPECT_EQ(watchdog.poll(30), 1u);  // threshold inclusive
  EXPECT_TRUE(watchdog.stalled(0));
}

TEST(Watchdog, StallDetectedAndRecovered) {
  Watchdog watchdog(2, manual_config(30));
  watchdog.set_idle(1, true);  // a parked sibling stays healthy
  watchdog.heartbeat(0);
  EXPECT_EQ(watchdog.poll(0), 0u);

  // Worker 0 goes silent while non-idle: stalled once the window lapses.
  EXPECT_EQ(watchdog.poll(30), 1u);
  EXPECT_TRUE(watchdog.stalled(0));
  EXPECT_FALSE(watchdog.stalled(1));
  EXPECT_EQ(watchdog.stalled_count(), 1u);
  EXPECT_EQ(watchdog.stall_events(), 1u);
  EXPECT_EQ(watchdog.recoveries(), 0u);

  // A heartbeat is proof of life: the next poll clears the verdict.
  watchdog.heartbeat(0);
  EXPECT_EQ(watchdog.poll(40), 0u);
  EXPECT_FALSE(watchdog.stalled(0));
  EXPECT_EQ(watchdog.stalled_count(), 0u);
  EXPECT_EQ(watchdog.recoveries(), 1u);
  // The stall clock rearmed at the recovery sample, not the old one.
  EXPECT_EQ(watchdog.poll(69), 0u);
  EXPECT_EQ(watchdog.poll(70), 1u);
}

TEST(Watchdog, TransitionHookFiresOnBothEdges) {
  Watchdog watchdog(1, manual_config(30));
  std::vector<std::pair<std::size_t, bool>> transitions;
  watchdog.set_transition_hook([&](std::size_t worker, bool stalled) {
    transitions.emplace_back(worker, stalled);
  });
  watchdog.poll(0);
  watchdog.poll(30);   // healthy → stalled
  watchdog.poll(60);   // still stalled: no duplicate event
  watchdog.heartbeat(0);
  watchdog.poll(70);   // stalled → healthy
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], (std::pair<std::size_t, bool>{0, true}));
  EXPECT_EQ(transitions[1], (std::pair<std::size_t, bool>{0, false}));
}

TEST(Watchdog, MonitorThreadDetectsAgainstTheRealClock) {
  WatchdogConfig cfg;
  cfg.enabled = true;
  cfg.stall_ms = 20;
  cfg.poll_ms = 5;
  Watchdog watchdog(1, cfg);
  watchdog.start();  // worker 0 is born non-idle and never beats

  for (int spin = 0; spin < 200 && !watchdog.stalled(0); ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(watchdog.stalled(0));
  EXPECT_GE(watchdog.stall_events(), 1u);

  watchdog.heartbeat(0);
  for (int spin = 0; spin < 200 && watchdog.stalled(0); ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(watchdog.stalled(0));
  EXPECT_GE(watchdog.recoveries(), 1u);
  watchdog.stop();
}

// ---------------------------------------------------------------------------
// Service-level: a stalling model wedges a worker; the watchdog notices,
// siblings keep the service live, and shutdown drains cleanly even with
// the stall in flight.

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

TEST(ServiceWatchdog, StalledWorkerIsDetectedSiblingsServeShutdownDrains) {
  features::FeaturePipeline pipeline = make_pipeline(7);
  auto network = make_network(11);
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_batch_rows = 2;
  cfg.watchdog.enabled = true;
  cfg.watchdog.stall_ms = 25;
  cfg.watchdog.poll_ms = 5;
  ScoringService service(pipeline, network, cfg);

  // The first two batches wedge their worker for 200ms each — an order of
  // magnitude past the 25ms stall threshold sampled every 5ms.
  ModelFaultProfile stall;
  stall.name = "stalling";
  stall.stall_batches = 2;
  stall.stall_ms = 200;
  service.set_model_fault(stall);

  std::vector<ScoreFuture> futures;
  futures.push_back(service.submit(random_counts(1, 1)));
  // Wait for the watchdog to flag the wedged worker.
  for (int spin = 0; spin < 400 && service.stats().worker_stalls == 0; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(service.stats().worker_stalls, 1u);

  // The service stays live: new submissions land on (or are stolen by)
  // the healthy sibling and still resolve.
  for (int i = 0; i < 10; ++i)
    futures.push_back(service.submit(random_counts(1, 100 + i)));

  // Shutdown while a stall may still be in flight: drain must complete
  // and leave no future unresolved.
  service.shutdown(/*drain=*/true);
  for (auto& future : futures) {
    ScoreResult result = future.get();
    EXPECT_TRUE(result.ok()) << to_string(result.rejected);
  }

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.worker_stalls, 1u);
  // Recoveries never outnumber stalls; whether the final recovery poll
  // landed before the monitor stopped is a benign race, so equality is
  // not asserted here (Watchdog.StallDetectedAndRecovered pins it).
  EXPECT_LE(stats.worker_recoveries, stats.worker_stalls);
}

}  // namespace
}  // namespace mev::serve
