// Logging seam for the layers BELOW obs/. The runtime layer (and anything
// else that sits under obs in the dependency order) cannot include
// obs/log.hpp, so it emits through an installable process-wide hook:
//
//   runtime::log(LogLevel::kWarn, "runtime.breaker", "circuit opened",
//                {LogField::u64("trips", trips)});
//
// With no hook installed the call is a relaxed atomic load and a branch —
// effectively free. obs/log.cpp installs a bridge into the structured
// logger at static-init time, so breaker trips and retry storms surface in the same JSON-lines stream as
// the rest of the system without runtime/ ever depending on obs/.
//
// LogLevel and LogField are defined here (the lowest layer that logs) and
// re-exported by obs/log.hpp; one vocabulary, no duplication.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace mev::runtime {

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

/// The installed sink: (level, component, message, fields). Must be
/// thread-safe; called from whatever thread logs.
using LogHookFn = void (*)(LogLevel level, const char* component,
                           const char* message, const LogField* fields,
                           std::size_t num_fields);

/// Installs (or, with nullptr, removes) the process-wide hook.
void set_log_hook(LogHookFn hook) noexcept;
LogHookFn log_hook() noexcept;

/// Emits through the installed hook; no-op (one relaxed atomic load) when
/// none is installed.
void log(LogLevel level, const char* component, const char* message,
         const LogField* fields = nullptr, std::size_t num_fields = 0) noexcept;

inline void log(LogLevel level, const char* component, const char* message,
                std::initializer_list<LogField> fields) noexcept {
  log(level, component, message, fields.begin(), fields.size());
}

}  // namespace mev::runtime
