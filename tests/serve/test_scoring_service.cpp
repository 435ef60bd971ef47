// ScoringService behavior: parity with sequential scanning (bit-identical
// verdicts for any worker count), work-conserving batching
// and deadline policy under FakeClock (manual-pump mode), backpressure,
// shutdown semantics, hot-swap under concurrency, and stats() as a view
// of the service's own registry cells.
#include "serve/scoring_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/api_vocab.hpp"
#include "features/transform.hpp"
#include "math/rng.hpp"
#include "runtime/clock.hpp"

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

/// An untrained (but deterministic) model is all parity tests need.
struct Fixture {
  features::FeaturePipeline pipeline = make_pipeline(7);
  std::shared_ptr<nn::Network> network = make_network(11);
  core::MalwareDetector reference{pipeline, network};

  ScoringService make_service(ServiceConfig config) {
    return ScoringService(pipeline, network, config);
  }
};

void expect_same_verdicts(const std::vector<core::Verdict>& got,
                          const std::vector<core::Verdict>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].predicted_class, want[i].predicted_class) << i;
    // Bit-identical, not approximately equal: the service runs the same
    // scan_counts code path and per-row results are independent of batch
    // composition.
    EXPECT_EQ(got[i].malware_confidence, want[i].malware_confidence) << i;
  }
}

TEST(ScoringService, ManualModeParityWithSequentialScan) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 8;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  const math::Matrix all = random_counts(20, 42);
  std::vector<ScoreFuture> futures;
  // Mixed request sizes: 1, 2, 3, ... rows — batches will straddle them.
  std::size_t row = 0;
  for (std::size_t n = 1; row + n <= all.rows(); ++n) {
    futures.push_back(service.submit(all.slice_rows(row, row + n)));
    row += n;
  }
  while (service.pump() > 0) {
  }

  nn::InferenceSession session = f.reference.make_session();
  const auto want = f.reference.scan_counts(session, all);
  std::size_t offset = 0;
  for (auto& future : futures) {
    ScoreResult result = future.get();
    ASSERT_TRUE(result.ok());
    const std::vector<core::Verdict> expected(
        want.begin() + offset, want.begin() + offset + result.verdicts.size());
    expect_same_verdicts(result.verdicts, expected);
    offset += result.verdicts.size();
  }
  EXPECT_EQ(offset, row);
}

TEST(ScoringService, ThreadedParityAnyWorkerCountAnyWindow) {
  Fixture f;
  const math::Matrix all = random_counts(120, 43);
  nn::InferenceSession session = f.reference.make_session();
  const auto want = f.reference.scan_counts(session, all);

  for (std::size_t workers : {1u, 4u}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.max_batch_rows = 16;
    auto service = f.make_service(cfg);
    std::vector<ScoreFuture> futures;
    for (std::size_t r = 0; r < all.rows(); r += 3)
      futures.push_back(
          service.submit(all.slice_rows(r, std::min(r + 3, all.rows()))));
    std::size_t offset = 0;
    for (auto& future : futures) {
      ScoreResult result = future.get();
      ASSERT_TRUE(result.ok());
      const std::vector<core::Verdict> expected(
          want.begin() + offset,
          want.begin() + offset + result.verdicts.size());
      expect_same_verdicts(result.verdicts, expected);
      offset += result.verdicts.size();
    }
    EXPECT_EQ(offset, all.rows());
  }
}

TEST(ScoringService, FullBatchFlushesWithoutClockAdvance) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 4;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  auto future = service.submit(random_counts(4, 1));
  // Batch is full: scored on the next pump with no time passing.
  EXPECT_EQ(service.pump(), 4u);
  EXPECT_TRUE(future.get().ok());
}

TEST(ScoringService, ThreadedLoneRequestCompletesWithoutClockAdvance) {
  Fixture f;
  runtime::FakeClock clock;  // never advanced
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  // Work-conserving batching: a worker whose rings are dry scores the lone
  // row at once. Nothing waits for co-riders, so no time has to pass.
  auto future = service.submit(random_counts(1, 2));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_TRUE(future.get().ok());
  const auto stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.completed_rows, 1u);
}

TEST(ScoringService, ExpiredDeadlineIsRejectedNotScored) {
  Fixture f;
  runtime::FakeClock clock(50);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  SubmitOptions options;
  options.deadline_ms = 5;
  auto doomed = service.submit(random_counts(3, 3), options);
  auto alive = service.submit(random_counts(2, 4));
  clock.advance(10);  // past the deadline before the next pump
  service.pump();

  const ScoreResult rejected = doomed.get();
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.rejected, RejectReason::kDeadline);
  EXPECT_TRUE(rejected.verdicts.empty());
  EXPECT_TRUE(alive.get().ok());

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.expired_in_queue, 1u);  // aged out waiting in the batcher
  EXPECT_EQ(stats.completed_requests, 1u);
  EXPECT_EQ(stats.completed_rows, 2u);  // the doomed rows never ran
}

TEST(ScoringService, ExpiredAbsoluteDeadlineRejectedAtAdmission) {
  Fixture f;
  runtime::FakeClock clock(100);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  // The propagation form: an upstream hop forwards an absolute deadline
  // that has already passed. Rejected synchronously, before admission
  // charges the queue.
  SubmitOptions options;
  options.deadline_at_ms = 50;
  auto dead_on_arrival = service.submit(random_counts(2, 30), options);
  ASSERT_EQ(dead_on_arrival.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(dead_on_arrival.get().rejected, RejectReason::kDeadline);

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.expired_at_admission, 1u);
  EXPECT_EQ(stats.accepted_requests, 0u);  // never consumed queue capacity
}

TEST(ScoringService, EarlierOfRelativeAndAbsoluteDeadlineWins) {
  Fixture f;
  runtime::FakeClock clock(100);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  // Absolute 110 beats relative 100+100: expired once the clock hits 110.
  SubmitOptions tight_absolute;
  tight_absolute.deadline_ms = 100;
  tight_absolute.deadline_at_ms = 110;
  auto a = service.submit(random_counts(1, 31), tight_absolute);
  // Relative 100+5 beats absolute 500.
  SubmitOptions tight_relative;
  tight_relative.deadline_ms = 5;
  tight_relative.deadline_at_ms = 500;
  auto b = service.submit(random_counts(1, 32), tight_relative);
  // A roomy deadline in the same batch survives.
  SubmitOptions roomy;
  roomy.deadline_at_ms = 10'000;
  auto c = service.submit(random_counts(1, 33), roomy);

  clock.advance(15);  // now 115: past both tight deadlines
  service.pump();
  EXPECT_EQ(a.get().rejected, RejectReason::kDeadline);
  EXPECT_EQ(b.get().rejected, RejectReason::kDeadline);
  EXPECT_TRUE(c.get().ok());

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_deadline, 2u);
  EXPECT_EQ(stats.expired_in_queue, 2u);
  EXPECT_EQ(stats.completed_rows, 1u);
}

TEST(ScoringService, QueueFullRejectsImmediately) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_queue_rows = 8;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  auto accepted = service.submit(random_counts(8, 5));
  auto rejected = service.submit(random_counts(1, 6));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().rejected, RejectReason::kQueueFull);

  while (service.pump() > 0) {
  }
  EXPECT_TRUE(accepted.get().ok());
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.accepted_requests, 1u);
}

TEST(ScoringService, ShutdownDrainScoresPending) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  auto pending = service.submit(random_counts(3, 7));
  service.shutdown(/*drain=*/true);
  EXPECT_TRUE(pending.get().ok());

  auto late = service.submit(random_counts(1, 8));
  EXPECT_EQ(late.get().rejected, RejectReason::kShuttingDown);
  EXPECT_EQ(service.stats().rejected_shutting_down, 1u);
}

TEST(ScoringService, ShutdownWithoutDrainRejectsPending) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  auto pending = service.submit(random_counts(3, 9));
  service.shutdown(/*drain=*/false);
  EXPECT_EQ(pending.get().rejected, RejectReason::kShuttingDown);
  EXPECT_EQ(service.stats().completed_rows, 0u);
}

TEST(ScoringService, DestructorDrainsInFlightWork) {
  Fixture f;
  ScoreFuture future;
  {
    ServiceConfig cfg;
    cfg.workers = 2;
    auto service = f.make_service(cfg);
    future = service.submit(random_counts(5, 10));
  }  // ~ScoringService: drain
  EXPECT_TRUE(future.get().ok());
}

TEST(ScoringService, DroppedFuturesNeitherLeakNorStall) {
  // A future dropped unread, while pending or after its request resolved:
  // the completion callback still fulfils and frees the promise (the ASan
  // job runs with detect_leaks=1), and the service keeps serving.
  Fixture f;
  ServiceConfig cfg;
  cfg.workers = 2;
  auto service = f.make_service(cfg);
  constexpr std::uint64_t kDropped = 32;
  for (std::uint64_t i = 0; i < kDropped; ++i) {
    ScoreFuture future = service.submit(random_counts(3, 100 + i));
    if (i % 2 == 1) future.wait();  // resolved before the drop
  }
  EXPECT_TRUE(service.score(random_counts(2, 200)).ok());

  service.shutdown(/*drain=*/true);
  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted_requests, kDropped + 1);
  EXPECT_EQ(stats.completed_requests, stats.accepted_requests);
  EXPECT_EQ(stats.callback_errors, 0u);
}

TEST(ScoringService, EmptySubmissionCompletesImmediately) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);
  auto future = service.submit(math::Matrix(0, kDim));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ScoreResult result = future.get();
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.verdicts.empty());
  EXPECT_EQ(result.model_version, 1u);
}

TEST(ScoringService, WrongColumnCountThrows) {
  Fixture f;
  ServiceConfig cfg;
  cfg.workers = 0;
  auto service = f.make_service(cfg);
  EXPECT_THROW(service.submit(math::Matrix(1, 10)), std::invalid_argument);
}

TEST(ScoringService, HotSwapPublishesNewModelAtomically) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);
  EXPECT_EQ(service.model_version(), 1u);

  const math::Matrix counts = random_counts(4, 11);
  const ScoreResult before = service.score(counts);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.model_version, 1u);
  nn::InferenceSession session = f.reference.make_session();
  expect_same_verdicts(before.verdicts,
                       f.reference.scan_counts(session, counts));

  // Roll out a different model (e.g. a retrained/distilled defender).
  auto swapped_network = make_network(99);
  EXPECT_EQ(service.swap_model(make_pipeline(7), swapped_network), 2u);
  EXPECT_EQ(service.model_version(), 2u);

  const ScoreResult after = service.score(counts);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.model_version, 2u);
  core::MalwareDetector swapped_reference(make_pipeline(7), swapped_network);
  nn::InferenceSession swapped_session = swapped_reference.make_session();
  expect_same_verdicts(after.verdicts,
                       swapped_reference.scan_counts(swapped_session, counts));
}

TEST(ScoringService, HotSwapRejectsMismatchedModel) {
  Fixture f;
  ServiceConfig cfg;
  cfg.workers = 0;
  auto service = f.make_service(cfg);
  // Network input dim does not match the pipeline: detector validation.
  nn::MlpConfig bad;
  bad.dims = {10, 2};
  auto bad_network = std::make_shared<nn::Network>(nn::make_mlp(bad));
  EXPECT_THROW(service.swap_model(make_pipeline(7), std::move(bad_network)),
               std::invalid_argument);
}

TEST(ScoringService, ConcurrentSubmitAndHotSwapExactlyOnce) {
  Fixture f;
  auto network_b = make_network(99);
  core::MalwareDetector reference_b(make_pipeline(7), network_b);

  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_batch_rows = 8;
  cfg.max_queue_rows = 1u << 20;  // no backpressure in this test
  auto service = f.make_service(cfg);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 40;
  std::vector<std::vector<math::Matrix>> inputs(kProducers);
  std::vector<std::vector<ScoreFuture>> futures(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p)
    for (std::size_t i = 0; i < kPerProducer; ++i)
      inputs[p].push_back(random_counts(1 + (i % 3), 1000 + p * 100 + i));

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (auto& m : inputs[p]) futures[p].push_back(service.submit(m));
    });

  // Swap back and forth while traffic flows.
  for (int swap = 0; swap < 6; ++swap) {
    service.swap_model(make_pipeline(7),
                       swap % 2 == 0 ? network_b : f.network);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : producers) t.join();

  std::size_t completed = 0;
  nn::InferenceSession session_a = f.reference.make_session();
  nn::InferenceSession session_b = reference_b.make_session();
  for (std::size_t p = 0; p < kProducers; ++p)
    for (std::size_t i = 0; i < futures[p].size(); ++i) {
      ScoreResult result = futures[p][i].get();
      ASSERT_TRUE(result.ok());
      ++completed;
      // Whichever snapshot scored it, the verdicts must match that
      // snapshot's sequential reference bit-for-bit.
      const auto want_a = f.reference.scan_counts(session_a, inputs[p][i]);
      const auto want_b = reference_b.scan_counts(session_b, inputs[p][i]);
      ASSERT_EQ(result.verdicts.size(), want_a.size());
      bool matches_a = true, matches_b = true;
      for (std::size_t r = 0; r < result.verdicts.size(); ++r) {
        matches_a &= result.verdicts[r].malware_confidence ==
                     want_a[r].malware_confidence;
        matches_b &= result.verdicts[r].malware_confidence ==
                     want_b[r].malware_confidence;
      }
      EXPECT_TRUE(matches_a || matches_b) << "p=" << p << " i=" << i;
    }
  EXPECT_EQ(completed, kProducers * kPerProducer);

  service.shutdown();
  const auto stats = service.stats();
  // Exactly-once: every accepted request completed (plus nothing extra).
  EXPECT_EQ(stats.accepted_requests, completed);
  EXPECT_EQ(stats.completed_requests, completed);
  EXPECT_EQ(stats.rejected_total(), 0u);
  EXPECT_EQ(stats.model_swaps, 6u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.e2e_latency_us.count(), completed);
}

TEST(ScoringService, ConcurrentCallbackSubmittersExactlyOnce) {
  // The frontend's path: submit_with_callback() from many non-worker
  // threads at once, completions racing on worker threads. Every
  // submission's callback must fire exactly once — no drops, no
  // double-fires — and per-submission verdict counts must match the rows
  // submitted. Runs under the TSan stress filter (ScoringService.Concurrent*).
  Fixture f;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_batch_rows = 8;
  cfg.max_queue_rows = 1u << 20;  // no backpressure: every submit lands
  auto service = f.make_service(cfg);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 50;
  struct Completion {
    std::atomic<int> fires{0};
    std::size_t rows = 0;
    std::size_t got_verdicts = 0;
    RejectReason rejected = RejectReason::kNone;
  };
  std::vector<std::vector<Completion>> completions(kProducers);
  for (auto& per_producer : completions)
    per_producer = std::vector<Completion>(kPerProducer);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t rows = 1 + (i % 3);
        completions[p][i].rows = rows;
        service.submit_with_callback(
            random_counts(rows, 5000 + p * 1000 + i), SubmitOptions{},
            [](void* ctx, ScoreResult&& result) {
              auto* completion = static_cast<Completion*>(ctx);
              completion->fires.fetch_add(1, std::memory_order_relaxed);
              completion->got_verdicts = result.verdicts.size();
              completion->rejected = result.rejected;
            },
            &completions[p][i]);
      }
    });
  for (auto& t : producers) t.join();
  service.shutdown(/*drain=*/true);

  std::size_t completed = 0;
  for (std::size_t p = 0; p < kProducers; ++p)
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      const Completion& c = completions[p][i];
      // Exactly once, from whichever thread resolved it.
      ASSERT_EQ(c.fires.load(), 1) << "p=" << p << " i=" << i;
      ASSERT_EQ(c.rejected, RejectReason::kNone) << "p=" << p << " i=" << i;
      EXPECT_EQ(c.got_verdicts, c.rows);
      ++completed;
    }
  EXPECT_EQ(completed, kProducers * kPerProducer);
  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted_requests, completed);
  EXPECT_EQ(stats.completed_requests, completed);
  EXPECT_EQ(stats.rejected_total(), 0u);
}

TEST(ScoringService, StatsHistogramsTrackBatchesAndLatency) {
  Fixture f;
  runtime::FakeClock clock(1000);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 4;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  auto a = service.submit(random_counts(4, 21));  // full batch
  service.pump();
  auto b = service.submit(random_counts(2, 22));  // partial
  clock.advance(10);  // b waits 10ms for the next pump
  service.pump();
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());

  const auto stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batch_rows.count(), 2u);
  EXPECT_EQ(stats.batch_rows.max(), 4u);
  EXPECT_EQ(stats.queue_delay_us.count(), 2u);
  // The partial batch waited 10ms (FakeClock-derived microseconds).
  EXPECT_EQ(stats.queue_delay_us.max(), 10000u);
  EXPECT_EQ(stats.e2e_latency_us.count(), 2u);
  const obs::LatencySummary s = obs::summarize(stats.e2e_latency_us);
  EXPECT_LE(s.p50, s.p99);
}

/// The sample value of `series` (sanitized name plus any {labels}) in a
/// Prometheus text exposition; fails the test when it is missing.
std::uint64_t scraped(const std::string& exposition,
                      const std::string& series) {
  std::istringstream lines(exposition);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind(series + " ", 0) == 0)
      return std::stoull(line.substr(series.size() + 1));
  ADD_FAILURE() << "no series " << series << " in\n" << exposition;
  return 0;
}

/// Every ServiceStats counter must equal its registry cell: stats() is a
/// view of metrics(), not a second store.
void expect_stats_match_registry(const ScoringService& service) {
  const ServiceStats stats = service.stats();
  const std::string text = service.metrics().prometheus();
  const std::string rejected = "mev_serve_rejected_total{reason=\"";
  const std::string expired = "mev_serve_deadline_expired_total{stage=\"";
  const std::pair<std::uint64_t, std::string> expected[] = {
      {stats.accepted_requests, "mev_serve_accepted_requests"},
      {stats.accepted_rows, "mev_serve_accepted_rows"},
      {stats.rejected_queue_full, rejected + "queue_full\"}"},
      {stats.rejected_shutting_down, rejected + "shutting_down\"}"},
      {stats.rejected_deadline, rejected + "deadline\"}"},
      {stats.rejected_overloaded, rejected + "overloaded\"}"},
      {stats.rejected_internal, rejected + "internal_error\"}"},
      {stats.expired_at_admission, expired + "admission\"}"},
      {stats.expired_in_queue, expired + "queue\"}"},
      {stats.expired_post_dequeue, expired + "post_dequeue\"}"},
      {stats.completed_requests, "mev_serve_completed_requests"},
      {stats.completed_rows, "mev_serve_completed_rows"},
      {stats.batches, "mev_serve_batches"},
      {stats.model_swaps, "mev_serve_model_swaps"},
      {stats.stolen_requests, "mev_serve_stolen_requests"},
      {stats.spilled_submissions, "mev_serve_spilled_submissions"},
      {stats.callback_errors, "mev_serve_callback_errors_total"},
      {stats.batch_failures, "mev_serve_batch_failures_total"},
      {stats.batch_rows.count(), "mev_serve_batch_rows_count"},
      {stats.queue_delay_us.count(), "mev_serve_queue_delay_us_count"},
      {stats.e2e_latency_us.count(), "mev_serve_e2e_latency_us_count"},
  };
  for (const auto& [value, series] : expected)
    EXPECT_EQ(value, scraped(text, series)) << series;
}

TEST(ScoringService, ServicesWithoutRegistryKeepIndependentStats) {
  Fixture f;
  runtime::FakeClock clock(1000);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_queue_rows = 8;
  cfg.clock = &clock;
  auto a = f.make_service(cfg);
  auto b = f.make_service(cfg);
  ASSERT_NE(&a.metrics(), &b.metrics());

  // A: two scored, one queue-full, one expired at admission, one expired
  // in the queue. B: one scored, two queue-full.
  SubmitOptions past;
  past.deadline_at_ms = 1;
  SubmitOptions short_deadline;
  short_deadline.deadline_ms = 5;
  auto a_scored1 = a.submit(random_counts(3, 31));
  auto a_scored2 = a.submit(random_counts(2, 32));
  auto a_full = a.submit(random_counts(9, 33));
  auto a_late = a.submit(random_counts(1, 34), past);
  auto a_doomed = a.submit(random_counts(1, 35), short_deadline);
  auto b_scored = b.submit(random_counts(4, 36));
  auto b_full1 = b.submit(random_counts(5, 37));
  auto b_full2 = b.submit(random_counts(9, 38));
  clock.advance(10);
  while (a.pump() > 0) {
  }
  while (b.pump() > 0) {
  }
  EXPECT_TRUE(a_scored1.get().ok());
  EXPECT_TRUE(a_scored2.get().ok());
  EXPECT_EQ(a_full.get().rejected, RejectReason::kQueueFull);
  EXPECT_EQ(a_late.get().rejected, RejectReason::kDeadline);
  EXPECT_EQ(a_doomed.get().rejected, RejectReason::kDeadline);
  EXPECT_TRUE(b_scored.get().ok());
  EXPECT_EQ(b_full1.get().rejected, RejectReason::kQueueFull);
  EXPECT_EQ(b_full2.get().rejected, RejectReason::kQueueFull);

  const ServiceStats sa = a.stats();
  EXPECT_EQ(sa.completed_requests, 2u);
  EXPECT_EQ(sa.completed_rows, 5u);
  EXPECT_EQ(sa.rejected_queue_full, 1u);
  EXPECT_EQ(sa.rejected_deadline, 2u);
  EXPECT_EQ(sa.expired_at_admission, 1u);
  EXPECT_EQ(sa.expired_in_queue, 1u);
  const ServiceStats sb = b.stats();
  EXPECT_EQ(sb.completed_requests, 1u);
  EXPECT_EQ(sb.completed_rows, 4u);
  EXPECT_EQ(sb.rejected_queue_full, 2u);
  EXPECT_EQ(sb.rejected_deadline, 0u);
  expect_stats_match_registry(a);
  expect_stats_match_registry(b);
}

/// Callback context: the service to read and the stats() it saw while
/// its own request resolved.
struct StatsProbe {
  ScoringService* service = nullptr;
  std::promise<ServiceStats> seen;
};

void probe_stats(void* ctx, ScoreResult&&) {
  auto* probe = static_cast<StatsProbe*>(ctx);
  probe->seen.set_value(probe->service->stats());
}

// A completion callback (the HTTP frontend writing its response) must
// already find its own request in stats(): every path counts before it
// resolves, worker threads included.
TEST(ScoringService, CallbackSeesItsOwnRequestInStats) {
  Fixture f;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_batch_rows = 4;
  cfg.max_queue_rows = 8;
  auto service = f.make_service(cfg);

  StatsProbe scored{&service, {}};
  service.submit_with_callback(random_counts(4, 41), {}, probe_stats,
                               &scored);
  const ServiceStats at_scored = scored.seen.get_future().get();
  EXPECT_EQ(at_scored.completed_requests, 1u);
  EXPECT_EQ(at_scored.completed_rows, 4u);
  EXPECT_EQ(at_scored.batches, 1u);
  EXPECT_EQ(at_scored.e2e_latency_us.count(), 1u);

  StatsProbe full{&service, {}};
  service.submit_with_callback(random_counts(9, 42), {}, probe_stats, &full);
  EXPECT_EQ(full.seen.get_future().get().rejected_queue_full, 1u);

  // The immediate-shutdown sweep resolves through reject_all. A pump-mode
  // service holds the request in its ring until then.
  ServiceConfig idle_cfg;
  idle_cfg.workers = 0;
  auto idle = f.make_service(idle_cfg);
  StatsProbe swept{&idle, {}};
  idle.submit_with_callback(random_counts(1, 43), {}, probe_stats, &swept);
  idle.shutdown(/*drain=*/false);
  EXPECT_EQ(swept.seen.get_future().get().rejected_shutting_down, 1u);
}

}  // namespace
}  // namespace mev::serve
