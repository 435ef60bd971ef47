// EventCount: the futex-style parking primitive behind the serving
// workers' idle waits (DESIGN.md §8). The problem it solves: a producer
// must be able to wake a sleeping consumer without paying for a mutex on
// every operation, and a consumer must be able to check "is there work?"
// and go to sleep without a lost-wakeup window.
//
// Protocol (the classic eventcount):
//
//   consumer:                          producer:
//     key = ec.prepare_wait();           queue.push(item);
//     if (work available) {              ec.notify_one();
//       ec.cancel_wait();
//       ... consume ...
//     } else {
//       ec.wait(key);
//     }
//
// notify_*() on the fast path is a single atomic load: when no consumer
// is parked (the common case under load — workers are busy scoring) the
// producer never touches the mutex. Only an actual park/unpark pays for
// the mutex + condition variable underneath, which is what a futex wait
// costs anyway. The epoch in the returned key closes the race: a notify
// that lands between prepare_wait() and wait() bumps the epoch, so the
// wait returns immediately instead of sleeping through the wakeup.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace mev::runtime {

class EventCount {
 public:
  using Key = std::uint32_t;

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Announces intent to wait and returns the current epoch. Must be
  /// paired with exactly one cancel_wait() or wait().
  Key prepare_wait() noexcept;

  /// Abandons an announced wait (work was found after prepare_wait()).
  void cancel_wait() noexcept;

  /// Blocks until a notification arrives after the epoch in `key` (i.e.
  /// after the matching prepare_wait()). Returns immediately when one
  /// already has.
  void wait(Key key) noexcept;

  /// Wakes one / all parked waiters. One atomic load when nobody waits.
  void notify_one() noexcept;
  void notify_all() noexcept;

  /// Parked-waiter estimate (racy; for stats/gauges only).
  std::uint32_t waiters() const noexcept;

 private:
  void notify(bool all) noexcept;

  static constexpr std::uint64_t kWaiterMask = 0xffffffffull;
  static constexpr std::uint64_t kEpochShift = 32;

  /// Packed (epoch << 32 | waiters). Waiter count moves outside the
  /// mutex (prepare/cancel); the epoch only moves under it, so a waiter
  /// re-checking the epoch while holding the mutex cannot miss a bump.
  std::atomic<std::uint64_t> state_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace mev::runtime
