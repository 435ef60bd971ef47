// Batching-policy unit tests: no threads, no sleeps. Batch formation is a
// pure function of what is pending; only deadline expiry reads the clock.
#include "serve/micro_batcher.hpp"

#include <gtest/gtest.h>

#include "runtime/clock.hpp"

namespace mev::serve {
namespace {

Request make_request(std::size_t rows, std::uint64_t enqueue_ms,
                     std::uint64_t deadline_ms = 0) {
  Request r;
  r.counts = math::Matrix(rows, 4);
  r.enqueue_ms = enqueue_ms;
  r.enqueue_us = enqueue_ms * 1000;
  r.deadline_ms = deadline_ms;
  return r;
}

BatcherConfig config(std::size_t max_rows) { return BatcherConfig{max_rows}; }

TEST(MicroBatcher, ZeroMaxBatchThrows) {
  EXPECT_THROW(MicroBatcher(config(0)), std::invalid_argument);
}

TEST(MicroBatcher, EmptyNeverFlushes) {
  MicroBatcher b(config(8));
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.poll().has_value());
}

TEST(MicroBatcher, FlushesAtMaxBatchRowsImmediately) {
  runtime::FakeClock clock(10);
  MicroBatcher b(config(8));
  b.add(make_request(3, clock.now_ms()));
  b.add(make_request(5, clock.now_ms()));
  const auto batch = b.poll();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->rows, 8u);
  EXPECT_EQ(batch->requests.size(), 2u);
  EXPECT_TRUE(b.empty());
}

TEST(MicroBatcher, PartialBatchFlushesWithoutWaiting) {
  MicroBatcher b(config(64));
  b.add(make_request(3, 100));
  // Work-conserving: no co-rider window, the lone request is a batch now.
  const auto batch = b.poll();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->rows, 3u);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.poll().has_value());
}

TEST(MicroBatcher, RequestsAreNeverSplit) {
  runtime::FakeClock clock(0);
  MicroBatcher b(config(64));
  b.add(make_request(40, clock.now_ms()));
  b.add(make_request(40, clock.now_ms()));
  const auto first = b.poll();
  ASSERT_TRUE(first.has_value());
  // 40 + 40 > 64: the second request must wait for the next batch rather
  // than being split.
  EXPECT_EQ(first->rows, 40u);
  EXPECT_EQ(b.pending_rows(), 40u);
  const auto second = b.poll();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->rows, 40u);
}

TEST(MicroBatcher, OversizedRequestFormsItsOwnBatch) {
  runtime::FakeClock clock(0);
  MicroBatcher b(config(8));
  b.add(make_request(20, clock.now_ms()));
  b.add(make_request(2, clock.now_ms()));
  const auto batch = b.poll();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->rows, 20u);  // larger than max_batch_rows, still whole
  EXPECT_EQ(batch->requests.size(), 1u);
  EXPECT_EQ(b.pending_rows(), 2u);
}

TEST(MicroBatcher, ExpiredRequestsAreTakenNotScored) {
  runtime::FakeClock clock(0);
  MicroBatcher b(config(64));
  b.add(make_request(2, clock.now_ms(), /*deadline_ms=*/5));
  b.add(make_request(3, clock.now_ms(), /*deadline_ms=*/50));
  clock.advance(10);  // first deadline passed, second still live
  std::vector<Request> expired;
  b.take_expired(clock.now_ms(), expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].counts.rows(), 2u);
  EXPECT_EQ(b.pending_rows(), 3u);
  // The survivor still flushes normally.
  const auto batch = b.poll();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->rows, 3u);
}

TEST(MicroBatcher, FifoOrderWithinAndAcrossBatches) {
  runtime::FakeClock clock(0);
  MicroBatcher b(config(4));
  for (std::size_t i = 0; i < 6; ++i) {
    Request r = make_request(2, clock.now_ms());
    r.counts.fill(static_cast<float>(i));
    b.add(std::move(r));
  }
  const auto first = b.poll();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->requests.size(), 2u);
  EXPECT_EQ(first->requests[0].counts(0, 0), 0.0f);
  EXPECT_EQ(first->requests[1].counts(0, 0), 1.0f);
  const auto second = b.poll();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->requests[0].counts(0, 0), 2.0f);
}

}  // namespace
}  // namespace mev::serve
