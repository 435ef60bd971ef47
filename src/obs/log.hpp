// Structured, leveled logging for long-running processes: the third leg of
// the obs/ telemetry plane next to tracing and metrics.
//
//   obs::Logger& log = obs::default_logger();
//   log.log(obs::LogLevel::kInfo, "serve.service", "model swapped",
//           {obs::LogField::u64_value("version", v)});
//
//   → {"ts_us":1234,"level":"info","component":"serve.service",
//      "msg":"model swapped","version":5}
//
// Design:
//  * Leveled (trace..error) with a cheap enabled() gate; records below
//    min_level cost one relaxed atomic load.
//  * Thread-safe: the record is formatted into a local buffer, then a
//    single mutex-guarded write hands it to the sink — lines never
//    interleave.
//  * Two formats: JSON lines (machine-tailed, the default) and a human
//    `2.417s WARN serve.service model swapped version=5` form.
//  * Timestamps come from an injectable runtime::Clock (FakeClock →
//    deterministic test output).
//  * Per-site token-bucket rate limiting: the MEV_LOG_* macros declare a
//    static LogSite per call site; a flooding site drops locally and the
//    drops are counted in the logger's `mev.obs.log_dropped_total`
//    registry counter, so suppression is itself observable on /metrics.
//  * Layers below obs/ (runtime/) emit through runtime::log_hook.hpp; this
//    file installs a bridge into default_logger() at static-init time.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "runtime/clock.hpp"
#include "runtime/log_hook.hpp"

namespace mev::obs {

// One vocabulary across layers: the level/field types live in runtime/
// (the lowest layer that logs) and are re-exported here.
using runtime::LogField;
using runtime::LogLevel;

struct LoggerConfig {
  /// Records below this level are discarded at the call site.
  LogLevel min_level = LogLevel::kInfo;
  /// true = JSON lines; false = human-readable.
  bool json = true;
  /// Destination; nullptr = std::cerr (stdout stays clean for program
  /// output — demo parity depends on it). Must outlive the logger.
  std::ostream* sink = nullptr;
  /// Timestamp source; nullptr = runtime::SystemClock. Must outlive the
  /// logger.
  runtime::Clock* clock = nullptr;
  /// Registry for the logger's own counters (`mev.obs.log_lines_total`,
  /// `mev.obs.log_dropped_total`); nullptr = the ambient
  /// obs::current_registry() at construction. Must outlive the logger.
  MetricsRegistry* metrics = nullptr;
};

/// Per-call-site token bucket state for the MEV_LOG_* macros. Declared
/// `static` at the call site; zero-initialized = "first call initializes
/// the bucket". A site with rate_per_s == 0 is unlimited.
struct LogSite {
  double rate_per_s = 0.0;
  double burst = 1.0;
  // Bucket state, guarded by the owning logger's mutex.
  double tokens = 0.0;
  std::uint64_t last_refill_us = 0;
  bool initialized = false;
};

class Logger {
 public:
  explicit Logger(LoggerConfig config = {});

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  bool enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >=
           min_level_.load(std::memory_order_relaxed);
  }
  void set_min_level(LogLevel level) noexcept {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel min_level() const noexcept {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }

  void log(LogLevel level, const char* component, std::string_view message,
           std::initializer_list<LogField> fields = {}) {
    log(level, component, message, fields.begin(), fields.size());
  }
  void log(LogLevel level, const char* component, std::string_view message,
           const LogField* fields, std::size_t num_fields);

  /// Rate-limited variant used by the MEV_LOG_EVERY macro: `site` is a
  /// per-call-site token bucket; a drained bucket drops the record and
  /// bumps dropped()/mev.obs.log_dropped_total instead of writing.
  void log_site(LogSite& site, LogLevel level, const char* component,
                std::string_view message,
                std::initializer_list<LogField> fields = {});

  /// Records suppressed by rate limiting since construction.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Records written since construction.
  std::uint64_t lines() const noexcept {
    return lines_.load(std::memory_order_relaxed);
  }

  runtime::Clock& clock() const noexcept { return *clock_; }

 private:
  void write_record(LogLevel level, const char* component,
                    std::string_view message, const LogField* fields,
                    std::size_t num_fields, std::uint64_t ts_us);

  std::atomic<int> min_level_;
  bool json_;
  std::ostream* sink_;
  runtime::Clock* clock_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> lines_{0};
  Counter lines_counter_;
  Counter dropped_counter_;
  std::mutex mutex_;  // guards sink writes and LogSite bucket state
};

/// Process-wide default logger: JSON lines on stderr, min level kWarn
/// (quiet by default) unless the MEV_LOG_LEVEL environment variable names
/// one of trace|debug|info|warn|error|off. Created on first use, never
/// destroyed before exit.
Logger& default_logger();

/// nullptr -> default_logger(); anything else passes through.
inline Logger* resolve(Logger* logger) noexcept {
  return logger != nullptr ? logger : &default_logger();
}

/// Call-site macros. MEV_LOG writes unconditionally (above min level);
/// MEV_LOG_EVERY declares a static per-site token bucket admitting
/// `rate_per_s` records per second with bursts of `burst` — the shape for
/// per-request warning paths that must not flood under overload.
#define MEV_LOG(logger, level, component, message, ...)                   \
  do {                                                                    \
    ::mev::obs::Logger& mev_log_l_ = (logger);                            \
    if (mev_log_l_.enabled(level))                                        \
      mev_log_l_.log((level), (component), (message), ##__VA_ARGS__);     \
  } while (0)

#define MEV_LOG_EVERY(logger, level, rate_per_s, burst, component, message, \
                      ...)                                                  \
  do {                                                                      \
    ::mev::obs::Logger& mev_log_l_ = (logger);                              \
    if (mev_log_l_.enabled(level)) {                                        \
      static ::mev::obs::LogSite mev_log_site_{(rate_per_s), (burst)};      \
      mev_log_l_.log_site(mev_log_site_, (level), (component), (message),   \
                          ##__VA_ARGS__);                                   \
    }                                                                       \
  } while (0)

}  // namespace mev::obs
