// Injectable monotonic clock. Every time-dependent piece of the runtime
// layer (backoff sleeps, injected timeout latency) goes through a Clock so
// tests drive time with a FakeClock — the retry suite never really
// sleeps.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace mev::runtime {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic milliseconds since an arbitrary epoch.
  virtual std::uint64_t now_ms() = 0;

  /// Monotonic microseconds since the same epoch. The default derives
  /// from now_ms() so fake clocks stay consistent automatically; real
  /// clocks override it for sub-millisecond latency accounting (the
  /// serving layer's histograms).
  virtual std::uint64_t now_us() { return now_ms() * 1000; }

  /// Blocks (or simulates blocking) for `ms` milliseconds.
  virtual void sleep_ms(std::uint64_t ms) = 0;
};

/// std::chrono::steady_clock + std::this_thread::sleep_for.
class SystemClock final : public Clock {
 public:
  std::uint64_t now_ms() override;
  std::uint64_t now_us() override;
  void sleep_ms(std::uint64_t ms) override;

  /// Shared process-wide instance (stateless, safe to share).
  static SystemClock& instance();
};

/// Manual clock for tests: sleep_ms advances time instantly and records
/// the requested duration. `now_` is atomic so a test driving advance()
/// can race server/worker threads reading the clock (the common "inject
/// a FakeClock into a threaded service" pattern); sleep_ms() itself is
/// still single-caller (the sleeps_ log is unsynchronized).
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::uint64_t start_ms = 0) : now_(start_ms) {}

  std::uint64_t now_ms() override {
    return now_.load(std::memory_order_relaxed);
  }
  void sleep_ms(std::uint64_t ms) override {
    now_.fetch_add(ms, std::memory_order_relaxed);
    sleeps_.push_back(ms);
  }

  /// Advances time without recording a sleep.
  void advance(std::uint64_t ms) {
    now_.fetch_add(ms, std::memory_order_relaxed);
  }

  const std::vector<std::uint64_t>& sleeps() const noexcept {
    return sleeps_;
  }
  std::uint64_t total_slept_ms() const noexcept;

 private:
  std::atomic<std::uint64_t> now_;
  std::vector<std::uint64_t> sleeps_;
};

}  // namespace mev::runtime
