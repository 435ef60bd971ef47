// EventCount contract tests: the no-lost-wakeup window between
// prepare_wait and wait, the fast-path notify on an idle count, and a
// producer/consumer stress shaped like the serving shards.
#include "runtime/event_count.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/mpsc_queue.hpp"

namespace mev::runtime {
namespace {

TEST(EventCount, NotifyWithNoWaitersIsANoOp) {
  EventCount ec;
  EXPECT_EQ(ec.waiters(), 0u);
  ec.notify_one();  // must not block, must not crash
  ec.notify_all();
  EXPECT_EQ(ec.waiters(), 0u);
}

TEST(EventCount, CancelWaitRestoresIdleFastPath) {
  EventCount ec;
  const auto key = ec.prepare_wait();
  (void)key;
  EXPECT_EQ(ec.waiters(), 1u);
  ec.cancel_wait();
  EXPECT_EQ(ec.waiters(), 0u);
}

TEST(EventCount, NotifyBetweenPrepareAndWaitIsNotLost) {
  // The race the epoch key exists for: the producer notifies after the
  // consumer announced intent but before it actually parked. The wait
  // must return immediately instead of sleeping forever.
  EventCount ec;
  const auto key = ec.prepare_wait();
  ec.notify_one();  // lands "too early"
  ec.wait(key);     // must not block
  EXPECT_EQ(ec.waiters(), 0u);
}

TEST(EventCount, NotifyAllWakesEveryWaiter) {
  EventCount ec;
  constexpr int kWaiters = 4;
  std::atomic<int> awake{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i)
    waiters.emplace_back([&] {
      const auto key = ec.prepare_wait();
      ec.wait(key);
      awake.fetch_add(1, std::memory_order_relaxed);
    });
  while (ec.waiters() != kWaiters) std::this_thread::yield();
  ec.notify_all();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(awake.load(), kWaiters);
}

TEST(EventCount, QueueHandoffNeverDeadlocks) {
  // The exact shard protocol: producers push then notify; the consumer
  // checks the queue between prepare_wait and wait. If a wakeup could be
  // lost this test hangs (caught by the ctest timeout).
  constexpr std::uint64_t kItems = 20000;
  MpscQueue<std::uint64_t> q(64);
  EventCount ec;
  std::atomic<std::uint64_t> consumed{0};

  std::thread consumer([&] {
    while (consumed.load(std::memory_order_relaxed) < kItems) {
      if (auto v = q.try_pop()) {
        consumed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const auto key = ec.prepare_wait();
      if (!q.approx_empty() ||
          consumed.load(std::memory_order_relaxed) >= kItems) {
        ec.cancel_wait();
        continue;
      }
      ec.wait(key);
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p)
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kItems / 2; ++i) {
        std::uint64_t value = p * (kItems / 2) + i;
        while (!q.try_push(std::move(value))) std::this_thread::yield();
        ec.notify_one();
      }
    });

  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(consumed.load(), kItems);
}

}  // namespace
}  // namespace mev::runtime
