// Sharded-ingress behavior added in PR 6: the start()/autostart lifecycle
// (fail-fast before start), callback-mode submissions, spill routing when
// a home ring fills, and completion ordering under concurrent
// swap_model() + submit across shards — a submission entering after a
// swap returns is never scored by the retired snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
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

TEST(ShardedIngress, SubmitBeforeStartFailsFast) {
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.autostart = false;
  ScoringService service(make_pipeline(7), make_network(11), cfg);

  // Regression: a submission into a never-started service must fail fast
  // with an already-ready rejection — not queue into a service nobody is
  // pumping and hang the caller.
  ScoreFuture early = service.submit(random_counts(2, 1));
  ASSERT_EQ(early.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(early.get().rejected, RejectReason::kShuttingDown);
  EXPECT_FALSE(service.readiness().ready);
  EXPECT_EQ(service.readiness().reason, "not started");
  EXPECT_EQ(service.stats().rejected_shutting_down, 1u);

  EXPECT_TRUE(service.start());
  EXPECT_FALSE(service.start());  // idempotent: already running
  const ScoreResult scored = service.score(random_counts(2, 2));
  EXPECT_TRUE(scored.ok());
  EXPECT_EQ(scored.verdicts.size(), 2u);
}

TEST(ShardedIngress, ShutdownBeforeStartIsClean) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.autostart = false;
  ScoringService service(make_pipeline(7), make_network(11), cfg);
  service.shutdown();
  EXPECT_FALSE(service.start());  // stopped, not restartable
  EXPECT_EQ(service.submit(random_counts(1, 3)).get().rejected,
            RejectReason::kShuttingDown);
}

TEST(ShardedIngress, CallbackModeParityWithFutureMode) {
  features::FeaturePipeline pipeline = make_pipeline(7);
  std::shared_ptr<nn::Network> network = make_network(11);
  ServiceConfig cfg;
  cfg.workers = 0;
  ScoringService service(pipeline, network, cfg);

  const math::Matrix counts = random_counts(6, 4);
  struct Ctx {
    ScoreResult result;
    int calls = 0;
  } ctx;
  service.submit_with_callback(
      counts, {},
      [](void* raw, ScoreResult&& r) {
        auto* c = static_cast<Ctx*>(raw);
        c->result = std::move(r);
        ++c->calls;
      },
      &ctx);
  ScoreFuture future = service.submit(counts);
  while (ctx.calls == 0) service.pump();
  const ScoreResult via_future = future.get();

  ASSERT_EQ(ctx.calls, 1);
  ASSERT_TRUE(ctx.result.ok());
  ASSERT_TRUE(via_future.ok());
  ASSERT_EQ(ctx.result.verdicts.size(), via_future.verdicts.size());
  for (std::size_t i = 0; i < via_future.verdicts.size(); ++i) {
    EXPECT_EQ(ctx.result.verdicts[i].predicted_class,
              via_future.verdicts[i].predicted_class);
    EXPECT_EQ(ctx.result.verdicts[i].malware_confidence,
              via_future.verdicts[i].malware_confidence);
  }
}

TEST(ShardedIngress, CallbackRejectionRunsInline) {
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.autostart = false;
  ScoringService service(make_pipeline(7), make_network(11), cfg);

  RejectReason seen = RejectReason::kNone;
  service.submit_with_callback(
      random_counts(1, 5), {},
      [](void* raw, ScoreResult&& r) {
        *static_cast<RejectReason*>(raw) = r.rejected;
      },
      &seen);
  // Resolved synchronously on this thread, before submit returns.
  EXPECT_EQ(seen, RejectReason::kShuttingDown);
}

TEST(ShardedIngress, SpillsPastFullHomeShardThenRejects) {
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.shards = 2;
  cfg.shard_capacity = 2;  // tiny rings: force spill from one submitter
  cfg.max_queue_rows = 1024;
  ScoringService service(make_pipeline(7), make_network(11), cfg);

  // One thread has one home shard; pushes 3..4 overflow into the
  // neighbor ring, the 5th finds every ring full.
  std::vector<ScoreFuture> futures;
  for (int i = 0; i < 5; ++i)
    futures.push_back(service.submit(random_counts(1, 10 + i)));

  const ServiceStats mid = service.stats();
  EXPECT_EQ(mid.accepted_requests, 4u);
  EXPECT_GE(mid.spilled_submissions, 1u);
  EXPECT_EQ(mid.rejected_queue_full, 1u);

  std::size_t ok = 0, queue_full = 0;
  for (auto& future : futures) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready)
      service.pump();
    const ScoreResult result = future.get();
    if (result.ok()) ++ok;
    if (result.rejected == RejectReason::kQueueFull) ++queue_full;
  }
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(queue_full, 1u);
}

// Each submitting thread draws its home-shard index once from a global
// counter, so threads that submit one after another take consecutive
// rings. A thread-id hash puts two of four threads on one ring in most
// runs (1 - 4!/4^4, about 90%).
TEST(ShardedIngress, DistinctSubmitterThreadsLandOnDistinctShards) {
  constexpr std::size_t kShards = 4;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.shards = kShards;
  ScoringService service(make_pipeline(7), make_network(11), cfg);

  // Fresh thread t submits t + 1 rows; pump mode leaves them in the rings.
  std::vector<ScoreFuture> futures(kShards);
  for (std::size_t t = 0; t < kShards; ++t)
    std::thread([&, t] {
      futures[t] = service.submit(random_counts(t + 1, 50 + t));
    }).join();

  std::vector<double> depth(kShards);
  for (std::size_t i = 0; i < kShards; ++i)
    depth[i] = service.metrics()
                   .gauge("mev.serve.shard" + std::to_string(i) +
                          ".queue_rows")
                   .value();
  const std::size_t first = static_cast<std::size_t>(
      std::find(depth.begin(), depth.end(), 1.0) - depth.begin());
  ASSERT_LT(first, kShards) << "no ring holds exactly thread 0's row";
  for (std::size_t t = 0; t < kShards; ++t)
    EXPECT_EQ(depth[(first + t) % kShards], static_cast<double>(t + 1))
        << "thread " << t;

  while (service.pump() > 0) {
  }
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
}

TEST(ShardedIngress, ShardCountDefaultsToWorkers) {
  ServiceConfig cfg;
  cfg.workers = 3;
  ScoringService with_workers(make_pipeline(7), make_network(11), cfg);
  EXPECT_EQ(with_workers.shard_count(), 3u);

  cfg.workers = 0;
  cfg.shards = 5;
  ScoringService manual(make_pipeline(7), make_network(11), cfg);
  EXPECT_EQ(manual.shard_count(), 5u);
}

// Satellite 3: completion ordering under concurrent swap_model + submit
// across shards. Every submission records the published version it saw
// before submitting; its verdict must come from that snapshot or a newer
// one — never from one retired before the submission began. Alongside,
// the exactly-once ledger must balance.
TEST(ShardedIngress, NoVerdictFromRetiredSnapshotAfterSwapReturns) {
  features::FeaturePipeline pipeline = make_pipeline(7);
  std::shared_ptr<nn::Network> network = make_network(11);
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.shards = 4;
  cfg.max_batch_rows = 8;
  ScoringService service(pipeline, network, cfg);

  constexpr std::size_t kSubmitters = 4;
  constexpr int kPerThread = 60;
  constexpr int kSwaps = 6;

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> completed{0};

  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t floor = service.model_version();
        ScoreFuture future =
            service.submit(random_counts(1 + (i % 3), t * 1000 + i));
        const ScoreResult result = future.get();
        ASSERT_TRUE(result.ok());
        if (result.model_version < floor)
          violations.fetch_add(1, std::memory_order_relaxed);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::thread swapper([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int s = 0; s < kSwaps; ++s) {
      const std::uint64_t v =
          service.swap_model(make_pipeline(7), make_network(100 + s));
      EXPECT_EQ(service.model_version(), v);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  go.store(true, std::memory_order_release);
  for (auto& t : submitters) t.join();
  swapper.join();
  service.shutdown();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(completed.load(), kSubmitters * kPerThread);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted_requests, kSubmitters * kPerThread);
  EXPECT_EQ(stats.completed_requests, kSubmitters * kPerThread);
  EXPECT_EQ(stats.rejected_total(), 0u);
  EXPECT_EQ(stats.model_swaps, static_cast<std::uint64_t>(kSwaps));
}

}  // namespace
}  // namespace mev::serve
