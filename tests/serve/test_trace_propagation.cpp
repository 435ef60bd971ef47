// Trace-context propagation through the serving pipeline: the
// TraceContext submitted with a request survives the shard rings, the
// micro-batcher, and the worker threads, the worker emits the
// queue/scan spans under the submitter's trace, StageStamps come back
// monotone, and uncorrelated requests emit no per-request spans. The
// cross-THREAD half of the tentpole: the correlated events are recorded
// on a worker thread the submitter never sees.
#include <atomic>
#include <future>
#include <memory>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "data/api_vocab.hpp"
#include "features/transform.hpp"
#include "math/rng.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
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

struct Fixture {
  features::FeaturePipeline pipeline = make_pipeline(7);
  std::shared_ptr<nn::Network> network = make_network(11);

  ScoringService make_service(ServiceConfig config) {
    return ScoringService(pipeline, network, config);
  }
};

TEST(TracePropagation, StageStampsAreMonotoneAndPopulated) {
  Fixture f;
  runtime::FakeClock clock(10);
  ServiceConfig cfg;
  cfg.workers = 0;  // manual pump: deterministic boundaries
  cfg.max_batch_rows = 8;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  std::promise<ScoreResult> done;
  auto got = done.get_future();
  service.submit_with_callback(
      random_counts(2, 42), {},
      [](void* ctx, ScoreResult&& result) {
        static_cast<std::promise<ScoreResult>*>(ctx)->set_value(
            std::move(result));
      },
      &done);
  clock.advance(3);
  service.pump();
  ScoreResult result = got.get();
  ASSERT_TRUE(result.ok());
  // admitted at submit (clock 10 ms), formed/scanned after the advance.
  EXPECT_EQ(result.stages.admitted_us, 10'000u);
  EXPECT_GE(result.stages.formed_us, result.stages.admitted_us);
  EXPECT_GE(result.stages.scan_start_us, result.stages.formed_us);
  EXPECT_GE(result.stages.scan_end_us, result.stages.scan_start_us);
  EXPECT_EQ(result.stages.formed_us, 13'000u);
}

TEST(TracePropagation, WorkerThreadsEmitSpansUnderTheSubmittersTrace) {
  Fixture f;
  runtime::FakeClock clock;
  obs::Tracer tracer(
      obs::TracerConfig{.ring_capacity = 256, .clock = &clock});
  ServiceConfig cfg;
  cfg.workers = 2;  // REAL threads: the cross-thread propagation test
  cfg.max_batch_rows = 4;
  cfg.clock = &clock;
  cfg.tracer = &tracer;
  auto service = f.make_service(cfg);

  const obs::TraceContext request_ctx = tracer.make_context();
  SubmitOptions options;
  options.trace = request_ctx;
  ScoreResult result =
      service.score(random_counts(3, 7), options);
  ASSERT_TRUE(result.ok());
  service.shutdown();

  // The worker thread emitted mev.serve.queue and mev.serve.scan under
  // the submitted trace, parented on the submitted span.
  bool saw_queue = false, saw_scan = false;
  for (const obs::TraceEvent& e : tracer.recent(256)) {
    if (e.trace_id != request_ctx.trace_id) continue;
    EXPECT_EQ(e.parent_span_id, request_ctx.span_id) << e.name;
    EXPECT_NE(e.span_id, request_ctx.span_id);
    if (std::string_view(e.name) == "mev.serve.queue") saw_queue = true;
    if (std::string_view(e.name) == "mev.serve.scan") saw_scan = true;
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_scan);
}

TEST(TracePropagation, UncorrelatedRequestsEmitNoRequestSpans) {
  Fixture f;
  runtime::FakeClock clock;
  obs::Tracer tracer(
      obs::TracerConfig{.ring_capacity = 256, .clock = &clock});
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 4;
  cfg.clock = &clock;
  cfg.tracer = &tracer;
  auto service = f.make_service(cfg);

  std::atomic<bool> called{false};
  service.submit_with_callback(
      random_counts(1, 3), {},
      [](void* ctx, ScoreResult&&) {
        static_cast<std::atomic<bool>*>(ctx)->store(true);
      },
      &called);
  service.pump();
  ASSERT_TRUE(called.load());
  for (const obs::TraceEvent& e : tracer.recent(256)) {
    EXPECT_EQ(e.trace_id, 0u) << e.name
                              << " carried a trace id for an uncorrelated "
                                 "request";
    EXPECT_NE(std::string_view(e.name), "mev.serve.queue");
  }
}

TEST(TracePropagation, EveryRequestInABatchKeepsItsOwnTrace) {
  Fixture f;
  runtime::FakeClock clock;
  obs::Tracer tracer(
      obs::TracerConfig{.ring_capacity = 256, .clock = &clock});
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 64;  // all three requests coalesce into one batch
  cfg.clock = &clock;
  cfg.tracer = &tracer;
  auto service = f.make_service(cfg);

  std::vector<obs::TraceContext> contexts;
  std::atomic<int> completions{0};
  for (int i = 0; i < 3; ++i) {
    contexts.push_back(tracer.make_context());
    SubmitOptions options;
    options.trace = contexts.back();
    service.submit_with_callback(
        random_counts(2, 100 + i), options,
        [](void* ctx, ScoreResult&& result) {
          EXPECT_TRUE(result.ok());
          ++*static_cast<std::atomic<int>*>(ctx);
        },
        &completions);
  }
  service.pump();
  ASSERT_EQ(completions.load(), 3);
  // One shared batch, but three distinct queue spans — one per trace.
  for (const obs::TraceContext& ctx : contexts) {
    int queue_spans = 0;
    for (const obs::TraceEvent& e : tracer.recent(256)) {
      if (e.trace_id == ctx.trace_id &&
          std::string_view(e.name) == "mev.serve.queue")
        ++queue_spans;
    }
    EXPECT_EQ(queue_spans, 1) << "trace " << ctx.trace_id;
  }
}

TEST(TracePropagation, RejectedRequestsStillReportAdmissionStamps) {
  Fixture f;
  runtime::FakeClock clock(100);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 4;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  SubmitOptions options;
  options.deadline_ms = 1;
  std::promise<ScoreResult> done;
  auto got = done.get_future();
  service.submit_with_callback(
      random_counts(1, 5), options,
      [](void* ctx, ScoreResult&& result) {
        static_cast<std::promise<ScoreResult>*>(ctx)->set_value(
            std::move(result));
      },
      &done);
  clock.advance(50);  // long past the 1 ms deadline
  service.pump();
  ScoreResult result = got.get();
  EXPECT_EQ(result.rejected, RejectReason::kDeadline);
  EXPECT_EQ(result.stages.admitted_us, 100'000u);
}

}  // namespace
}  // namespace mev::serve
