// FlightRecorder retention policy: N-slowest-per-window competition,
// error-ring capture, two-bank window rotation (the previous window stays
// readable), counter semantics (dropped = contention only), and a
// concurrent writers + snapshot stress that CI runs under TSan.
#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

using mev::obs::FlightRecord;
using mev::obs::FlightRecorder;
using mev::obs::FlightRecorderConfig;

FlightRecord make_record(std::uint64_t trace_id, std::uint64_t start_us,
                         std::uint64_t duration_us, bool error = false) {
  FlightRecord record;
  record.trace_id = trace_id;
  record.root_span_id = trace_id * 2 + 1;
  record.start_us = start_us;
  record.duration_us = duration_us;
  record.http_status = error ? 503 : 200;
  record.error = error;
  return record;
}

std::vector<std::uint64_t> sorted_durations(const FlightRecorder& recorder) {
  std::vector<std::uint64_t> durations;
  for (const FlightRecord& r : recorder.snapshot())
    durations.push_back(r.duration_us);
  std::sort(durations.begin(), durations.end());
  return durations;
}

TEST(FlightRecorder, KeepsTheSlowestRequestsOfAWindow) {
  FlightRecorder recorder(FlightRecorderConfig{.slow_slots = 4,
                                               .error_slots = 4,
                                               .window_us = 1'000'000});
  // 10 requests, durations 10..100; only the 4 slowest survive.
  for (std::uint64_t i = 1; i <= 10; ++i)
    recorder.record(make_record(i, /*start_us=*/i, /*duration_us=*/i * 10));
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 0u);  // not-slow-enough is not a drop
  EXPECT_EQ(sorted_durations(recorder),
            (std::vector<std::uint64_t>{70, 80, 90, 100}));
}

TEST(FlightRecorder, SlowArrivalOrderDoesNotMatter) {
  FlightRecorder recorder(FlightRecorderConfig{.slow_slots = 2,
                                               .error_slots = 2,
                                               .window_us = 1'000'000});
  // Slowest first: later faster requests must NOT evict it.
  recorder.record(make_record(1, 1, 500));
  recorder.record(make_record(2, 2, 10));
  recorder.record(make_record(3, 3, 20));
  recorder.record(make_record(4, 4, 400));
  EXPECT_EQ(sorted_durations(recorder),
            (std::vector<std::uint64_t>{400, 500}));
}

TEST(FlightRecorder, ErrorsAlwaysRetainRegardlessOfDuration) {
  FlightRecorder recorder(FlightRecorderConfig{.slow_slots = 2,
                                               .error_slots = 8,
                                               .window_us = 1'000'000});
  recorder.record(make_record(1, 1, 900));
  recorder.record(make_record(2, 2, 800));
  // A FAST error still lands in the ring even though the slow bank is
  // full of much slower successes.
  recorder.record(make_record(3, 3, 1, /*error=*/true));
  const auto snapshot = recorder.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  int errors = 0;
  for (const FlightRecord& r : snapshot) errors += r.error;
  EXPECT_EQ(errors, 1);
}

TEST(FlightRecorder, ErrorRingOverwritesOldestBeyondCapacity) {
  FlightRecorder recorder(FlightRecorderConfig{.slow_slots = 2,
                                               .error_slots = 3,
                                               .window_us = 1'000'000});
  for (std::uint64_t i = 1; i <= 7; ++i)
    recorder.record(make_record(i, i, i, /*error=*/true));
  std::vector<std::uint64_t> ids;
  for (const FlightRecord& r : recorder.snapshot()) ids.push_back(r.trace_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{5, 6, 7}));
}

TEST(FlightRecorder, WindowRotationKeepsThePreviousBankReadable) {
  FlightRecorder recorder(FlightRecorderConfig{.slow_slots = 2,
                                               .error_slots = 2,
                                               .window_us = 100});
  // Window 0: two slow requests.
  recorder.record(make_record(1, 10, 1000));
  recorder.record(make_record(2, 20, 2000));
  // Window 1 (start >= 100): the bank rotates; window 0's records remain.
  recorder.record(make_record(3, 150, 30));
  EXPECT_EQ(sorted_durations(recorder),
            (std::vector<std::uint64_t>{30, 1000, 2000}));
  // Window 2 reclaims the bank window 0 used; its records age out.
  recorder.record(make_record(4, 250, 40));
  EXPECT_EQ(sorted_durations(recorder),
            (std::vector<std::uint64_t>{30, 40}));
}

TEST(FlightRecorder, SnapshotCopiesSpanPayloads) {
  FlightRecorder recorder;
  FlightRecord record = make_record(7, 100, 500);
  record.rows = 16;
  record.stage_us = {1, 2, 3, 4, 5, 485};
  record.spans[0] = {"mev.net.request", 15, 0, 100, 500};
  record.spans[1] = {"parse", 15 ^ 1, 15, 100, 1};
  record.num_spans = 2;
  recorder.record(record);
  const auto snapshot = recorder.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].rows, 16u);
  EXPECT_EQ(snapshot[0].num_spans, 2u);
  EXPECT_STREQ(snapshot[0].spans[1].name, "parse");
  EXPECT_EQ(snapshot[0].spans[1].parent_span_id, 15u);
  EXPECT_EQ(snapshot[0].stage_us[5], 485u);
}

// TSan target: concurrent writers racing on the same slots plus a reader
// snapshotting mid-flight. The assertions are liveness + accounting; the
// real check is the absence of data-race reports.
TEST(FlightRecorder, ConcurrentWritersAndSnapshotsAreRaceFree) {
  FlightRecorder recorder(FlightRecorderConfig{.slow_slots = 4,
                                               .error_slots = 8,
                                               .window_us = 1000});
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snapshot = recorder.snapshot();
      for (const FlightRecord& r : snapshot)
        ASSERT_LE(r.num_spans, r.spans.size());
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const auto id = static_cast<std::uint64_t>(w * kPerWriter + i + 1);
        recorder.record(make_record(id, /*start_us=*/id,
                                    /*duration_us=*/1 + id % 97,
                                    /*error=*/i % 5 == 0));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  // Counters: retained + contention-dropped never exceeds what was
  // offered ("not slow enough" is intentionally uncounted), and the
  // recorder made progress despite the contention.
  EXPECT_LE(recorder.recorded() + recorder.dropped(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_GT(recorder.recorded(), 0u);
  EXPECT_FALSE(recorder.snapshot().empty());
}

}  // namespace
