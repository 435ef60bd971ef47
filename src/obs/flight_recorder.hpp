// FlightRecorder: bounded, lock-free tail-based retention of complete
// per-request span trees. Sampling heads (record everything, keep a
// uniform fraction) miss exactly the requests worth debugging; this keeps
//
//   * the N slowest successful requests per rotating time window (two
//     banks: the current window fills while the previous one remains
//     readable, so /requestz never goes empty right after rotation), and
//   * the last M error/rejected requests in a ring.
//
// Writers NEVER wait: each slot is guarded by a one-word atomic try-lock;
// a writer that loses the race drops the record and bumps a counter
// (diagnostics must not become backpressure — same contract as the
// Tracer rings). Readers skip busy slots the same way, so the structure
// is clean under TSan with concurrent writers and /requestz scrapes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/trace_context.hpp"

namespace mev::obs {

/// Slow-bank rotation period: 10 s. Each record's own start timestamp
/// drives rotation, so FakeClock tests control it exactly.
inline constexpr std::uint64_t kFlightWindowUs = 10'000'000;

struct FlightRecorderConfig {
  /// Slowest-request slots retained per window (per bank).
  std::size_t slow_slots = 16;
  /// Error/rejected-request ring size.
  std::size_t error_slots = 32;
};

/// The serving path's stage taxonomy — a telescoping partition of
/// [dispatch, respond]: parse (request decode), admission (auth, rate
/// limit, submit), queue (shard ring + batcher wait), batch (dequeue and
/// tensor assembly), scan (model forward), serialize (completion dispatch
/// + response build). Stage durations sum exactly to the e2e latency.
inline constexpr std::size_t kFlightStages = 6;
inline constexpr const char* kFlightStageNames[kFlightStages] = {
    "parse", "admission", "queue", "batch", "scan", "serialize"};

struct FlightSpan {
  const char* name = nullptr;  // string literal
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
};

struct FlightRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t trace_hi = 0;
  std::uint64_t root_span_id = 0;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
  std::array<std::uint64_t, kFlightStages> stage_us{};
  std::uint32_t rows = 0;
  std::uint16_t http_status = 0;
  std::uint8_t reject_reason = 0;  // serve::RejectReason numeric value
  bool error = false;              // retained in the error ring, not slow bank
  std::array<FlightSpan, 8> spans{};
  std::uint8_t num_spans = 0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Offers a completed request. Error records go to the error ring;
  /// successes compete for a slow slot in the current window's bank.
  /// Never blocks, never allocates; drops on slot contention.
  void record(const FlightRecord& record) noexcept;

  /// Copies every retained record (both slow banks + error ring), skipping
  /// slots a writer holds at that instant. Unordered; callers sort.
  std::vector<FlightRecord> snapshot() const;

  std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    // true while one thread (reader or writer) owns the payload.
    mutable std::atomic<bool> busy{false};
    // 0 = empty. Mirrors record.duration_us so the min-scan that picks an
    // eviction victim needs no slot lock.
    std::atomic<std::uint64_t> duration{0};
    FlightRecord record;
  };

  bool try_store(Slot& slot, const FlightRecord& record) noexcept;
  void record_slow(const FlightRecord& record) noexcept;
  void record_error(const FlightRecord& record) noexcept;

  FlightRecorderConfig config_;
  std::array<std::vector<Slot>, 2> slow_banks_;
  std::vector<Slot> error_ring_;
  std::atomic<std::uint64_t> window_{0};  // current window index
  std::atomic<std::uint64_t> error_cursor_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace mev::obs
