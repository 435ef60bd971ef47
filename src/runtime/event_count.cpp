#include "runtime/event_count.hpp"

namespace mev::runtime {

EventCount::Key EventCount::prepare_wait() noexcept {
  // seq_cst so the waiter increment orders before the caller's subsequent
  // "is there work?" check, and a producer's push orders before its
  // waiter-count load in notify(): one of the two always sees the other.
  const std::uint64_t prev = state_.fetch_add(1, std::memory_order_seq_cst);
  return static_cast<Key>(prev >> kEpochShift);
}

void EventCount::cancel_wait() noexcept {
  state_.fetch_sub(1, std::memory_order_seq_cst);
}

void EventCount::wait(Key key) noexcept {
  std::unique_lock<std::mutex> lock(mutex_);
  // The epoch only advances under mutex_, so this check + cv wait cannot
  // miss a notify: a concurrent notify either already bumped the epoch
  // (we return) or blocks on the mutex until we are inside cv_.wait.
  while (static_cast<Key>(state_.load(std::memory_order_relaxed) >>
                          kEpochShift) == key)
    cv_.wait(lock);
  lock.unlock();
  state_.fetch_sub(1, std::memory_order_seq_cst);
}

void EventCount::notify(bool all) noexcept {
  // Fast path: nobody is parked (or preparing to park) — one load, done.
  if ((state_.load(std::memory_order_seq_cst) & kWaiterMask) == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_.fetch_add(std::uint64_t{1} << kEpochShift,
                     std::memory_order_seq_cst);
  }
  if (all)
    cv_.notify_all();
  else
    cv_.notify_one();
}

void EventCount::notify_one() noexcept { notify(false); }

void EventCount::notify_all() noexcept { notify(true); }

std::uint32_t EventCount::waiters() const noexcept {
  return static_cast<std::uint32_t>(
      state_.load(std::memory_order_relaxed) & kWaiterMask);
}

}  // namespace mev::runtime
