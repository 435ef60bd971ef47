#include "obs/log.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <ostream>

#include "obs/json.hpp"
#include "obs/scope.hpp"

namespace mev::obs {

namespace {

void append_field_value(std::string& out, const LogField& f, bool as_json) {
  switch (f.kind) {
    case LogField::Kind::kString:
      if (as_json) {
        json::append_string(out, f.str);
      } else {
        out += f.str != nullptr ? f.str : "";
      }
      break;
    case LogField::Kind::kF64:
      json::append_number(out, f.f64);
      break;
    case LogField::Kind::kI64:
      out += std::to_string(f.i64);
      break;
    case LogField::Kind::kU64:
      out += std::to_string(f.u64);
      break;
  }
}

std::uint64_t next_logger_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Logger::Logger(LoggerConfig config)
    : id_(next_logger_id()),
      min_level_(static_cast<int>(config.min_level)),
      json_(config.json),
      sink_(config.sink != nullptr ? config.sink : &std::cerr),
      clock_(config.clock != nullptr ? config.clock
                                     : &runtime::SystemClock::instance()) {
  MetricsRegistry* registry = config.metrics;
  if (registry == nullptr) registry = current_registry();
  lines_counter_ = registry->counter("mev.obs.log_lines_total",
                                     "log records written to the sink");
  dropped_counter_ = registry->counter(
      "mev.obs.log_dropped_total",
      "log records suppressed by per-site rate limiting");
}

void Logger::log(LogLevel level, const char* component,
                 std::string_view message, const LogField* fields,
                 std::size_t num_fields) {
  if (!enabled(level) || level == LogLevel::kOff) return;
  write_record(level, component, message, fields, num_fields,
               clock_->now_us());
}

void Logger::log_site(LogSite& site, LogLevel level, const char* component,
                      std::string_view message,
                      std::initializer_list<LogField> fields) {
  if (!enabled(level) || level == LogLevel::kOff) return;
  const std::uint64_t now_us = clock_->now_us();
  if (site.rate_per_s > 0.0) {
    std::lock_guard<std::mutex> lock(mutex_);
    const double burst = std::max(site.burst, 1.0);
    if (site.owner != id_) {
      site.tokens = burst;
      site.last_refill_us = now_us;
      site.owner = id_;
    }
    const std::uint64_t elapsed_us =
        now_us >= site.last_refill_us ? now_us - site.last_refill_us : 0;
    site.tokens = std::min(
        burst, site.tokens + static_cast<double>(elapsed_us) * 1e-6 *
                                 site.rate_per_s);
    site.last_refill_us = now_us;
    if (site.tokens < 1.0) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      dropped_counter_.inc();
      return;
    }
    site.tokens -= 1.0;
  }
  write_record(level, component, message, fields.begin(), fields.size(),
               now_us);
}

void Logger::write_record(LogLevel level, const char* component,
                          std::string_view message, const LogField* fields,
                          std::size_t num_fields, std::uint64_t ts_us) {
  std::string out;
  out.reserve(96 + message.size() + num_fields * 24);
  if (json_) {
    out += "{\"ts_us\":";
    out += std::to_string(ts_us);
    out += ",\"level\":\"";
    out += runtime::to_string(level);
    out += "\",\"component\":";
    json::append_string(out, component);
    out += ",\"msg\":";
    json::append_string(out, message);
    for (std::size_t i = 0; i < num_fields; ++i) {
      out += ',';
      json::append_string(out, fields[i].key);
      out += ':';
      append_field_value(out, fields[i], /*as_json=*/true);
    }
    out += "}\n";
  } else {
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%.6f", static_cast<double>(ts_us) * 1e-6);
    out += ts;
    out += ' ';
    out += runtime::to_string(level);
    out += ' ';
    out += component != nullptr ? component : "";
    out += ' ';
    out += message;
    for (std::size_t i = 0; i < num_fields; ++i) {
      out += ' ';
      out += fields[i].key != nullptr ? fields[i].key : "";
      out += '=';
      append_field_value(out, fields[i], /*as_json=*/false);
    }
    out += '\n';
  }

  lines_.fetch_add(1, std::memory_order_relaxed);
  lines_counter_.inc();
  std::lock_guard<std::mutex> lock(mutex_);
  (*sink_) << out;
  sink_->flush();
}

namespace {

/// Bridge installed into runtime/log_hook.hpp so the layers below obs/
/// (circuit breaker, resilient oracle) land in the same structured stream.
void runtime_log_bridge(runtime::LogLevel level, const char* component,
                        const char* message, const runtime::LogField* fields,
                        std::size_t num_fields) {
  Logger& logger = default_logger();
  if (logger.enabled(level))
    logger.log(level, component, message != nullptr ? message : "", fields,
               num_fields);
}

[[maybe_unused]] const bool g_runtime_hook_installed = [] {
  runtime::set_log_hook(&runtime_log_bridge);
  return true;
}();

}  // namespace

Logger& default_logger() {
  static Logger logger([] {
    LoggerConfig config;
    config.min_level = runtime::parse_log_level(std::getenv("MEV_LOG_LEVEL"),
                                                LogLevel::kWarn);
    return config;
  }());
  return logger;
}

}  // namespace mev::obs
