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
//  * One format: JSON lines, one record per line.
//  * Timestamps come from an injectable runtime::Clock (FakeClock →
//    deterministic test output).
//  * Per-site token-bucket rate limiting: the MEV_LOG_* macros declare a
//    static LogSite per call site; a flooding site drops locally and the
//    drops are counted in the logger's `mev.obs.log_dropped_total`
//    registry counter, so suppression is itself observable on /metrics.
//  * Nothing below obs/ logs. The runtime layer reports through counters
//    (runtime::ResilienceStats), which core/blackbox folds into the
//    registry.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "runtime/clock.hpp"

namespace mev::obs {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  /// Sentinel for "log nothing"; never attached to a record.
  kOff = 5,
};

const char* to_string(LogLevel level) noexcept;
/// Parses "trace".."error"/"off" (case-sensitive); falls back to
/// `fallback` on anything else, including nullptr.
LogLevel parse_log_level(const char* text, LogLevel fallback) noexcept;

/// One structured key/value annotation. Keys and string values must
/// outlive the log call (use literals or stable storage); the logger
/// formats them synchronously, so call-scope lifetime is enough.
struct LogField {
  enum class Kind { kString, kF64, kI64, kU64 };

  const char* key = "";
  Kind kind = Kind::kU64;
  const char* str = "";
  double f64 = 0.0;
  std::int64_t i64 = 0;
  std::uint64_t u64 = 0;

  static LogField string(const char* key, const char* value) noexcept {
    LogField f;
    f.key = key;
    f.kind = Kind::kString;
    f.str = value;
    return f;
  }
  static LogField f64_value(const char* key, double value) noexcept {
    LogField f;
    f.key = key;
    f.kind = Kind::kF64;
    f.f64 = value;
    return f;
  }
  static LogField i64_value(const char* key, std::int64_t value) noexcept {
    LogField f;
    f.key = key;
    f.kind = Kind::kI64;
    f.i64 = value;
    return f;
  }
  static LogField u64_value(const char* key, std::uint64_t value) noexcept {
    LogField f;
    f.key = key;
    f.kind = Kind::kU64;
    f.u64 = value;
    return f;
  }
};

struct LoggerConfig {
  /// Records below this level are discarded at the call site.
  LogLevel min_level = LogLevel::kInfo;
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
/// `static` at the call site, so it outlives any one Logger: the bucket
/// belongs to the logger that last drove it, and a different logger
/// (owner id mismatch, including the zero-initialized "none yet") starts
/// it full on its own clock. A site with rate_per_s == 0 is unlimited.
struct LogSite {
  double rate_per_s = 0.0;
  double burst = 1.0;
  // Bucket state, guarded by the owning logger's mutex.
  double tokens = 0.0;
  std::uint64_t last_refill_us = 0;
  std::uint64_t owner = 0;  // id of the logger the bucket belongs to
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

  // Process-unique and never 0 or reused: LogSite::owner compares it, and
  // an address would not do, as a later logger can share a stack slot.
  const std::uint64_t id_;
  std::atomic<int> min_level_;
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
