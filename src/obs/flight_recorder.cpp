#include "obs/flight_recorder.hpp"

namespace mev::obs {

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {
  if (config_.slow_slots == 0) config_.slow_slots = 1;
  if (config_.error_slots == 0) config_.error_slots = 1;
  slow_banks_[0] = std::vector<Slot>(config_.slow_slots);
  slow_banks_[1] = std::vector<Slot>(config_.slow_slots);
  error_ring_ = std::vector<Slot>(config_.error_slots);
}

bool FlightRecorder::try_store(Slot& slot,
                               const FlightRecord& record) noexcept {
  if (slot.busy.exchange(true, std::memory_order_acquire)) return false;
  slot.record = record;
  slot.duration.store(record.duration_us != 0 ? record.duration_us : 1,
                      std::memory_order_relaxed);
  slot.busy.store(false, std::memory_order_release);
  return true;
}

void FlightRecorder::record(const FlightRecord& record) noexcept {
  if (record.error) {
    record_error(record);
  } else {
    record_slow(record);
  }
}

void FlightRecorder::record_error(const FlightRecord& record) noexcept {
  const std::uint64_t n =
      error_cursor_.fetch_add(1, std::memory_order_relaxed);
  if (try_store(error_ring_[n % error_ring_.size()], record)) {
    recorded_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FlightRecorder::record_slow(const FlightRecord& record) noexcept {
  // Rotate banks when this record's start crosses into a new window. The
  // winner of the CAS clears the bank the new window maps to (the other
  // bank keeps the previous window's slowest until it is reused in turn).
  const std::uint64_t window = record.start_us / kFlightWindowUs;
  std::uint64_t current = window_.load(std::memory_order_relaxed);
  if (window > current &&
      window_.compare_exchange_strong(current, window,
                                      std::memory_order_relaxed)) {
    for (Slot& slot : slow_banks_[window & 1]) {
      if (!slot.busy.exchange(true, std::memory_order_acquire)) {
        slot.duration.store(0, std::memory_order_relaxed);
        slot.busy.store(false, std::memory_order_release);
      }
      // A busy slot keeps its stale record; it loses the next min-scan.
    }
  }

  std::vector<Slot>& bank =
      slow_banks_[window_.load(std::memory_order_relaxed) & 1];
  // Two attempts: the min-duration slot, then (if a racer took it) the
  // second-smallest. Losing both races drops the record.
  std::size_t skip = bank.size();
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::size_t victim = bank.size();
    std::uint64_t victim_duration = ~std::uint64_t{0};
    for (std::size_t i = 0; i < bank.size(); ++i) {
      if (i == skip) continue;
      const std::uint64_t d = bank[i].duration.load(std::memory_order_relaxed);
      if (d == 0) {  // empty slot: take it outright
        victim = i;
        victim_duration = 0;
        break;
      }
      if (d < victim_duration) {
        victim = i;
        victim_duration = d;
      }
    }
    if (victim == bank.size() ||
        (victim_duration != 0 && record.duration_us <= victim_duration)) {
      return;  // not among the window's slowest — intentionally not kept
    }
    if (try_store(bank[victim], record)) {
      recorded_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    skip = victim;
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);  // lost both slot races
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(2 * config_.slow_slots + config_.error_slots);
  const auto drain = [&out](const std::vector<Slot>& slots) {
    for (const Slot& slot : slots) {
      if (slot.duration.load(std::memory_order_relaxed) == 0) continue;
      if (slot.busy.exchange(true, std::memory_order_acquire)) continue;
      if (slot.duration.load(std::memory_order_relaxed) != 0)
        out.push_back(slot.record);
      slot.busy.store(false, std::memory_order_release);
    }
  };
  drain(slow_banks_[0]);
  drain(slow_banks_[1]);
  drain(error_ring_);
  return out;
}

}  // namespace mev::obs
