// MetricsRegistry: named counters, gauges, and Log2Histogram-backed
// histograms with cheap handle-based hot-path access.
//
//   obs::MetricsRegistry registry;
//   obs::Counter queries = registry.counter("mev.core.blackbox.oracle_queries",
//                                           "cumulative oracle submissions");
//   queries.inc();                      // lock-free atomic add, no lookup
//   registry.write_prometheus(file);    // text exposition format
//   registry.write_json(file);          // point-in-time snapshot
//
// Handles are obtained once (registration takes the registry mutex and a
// name lookup) and then used forever: increments/sets are a relaxed atomic
// op, histogram records take only that histogram's mutex. Requesting an
// existing name returns a handle to the same cell (same-kind required);
// cells have stable addresses for the registry's lifetime, so handles
// never dangle while the registry lives. Metric names use the
// `mev.<layer>.<op>` convention; exporters sanitize for Prometheus
// ('.' and '-' become '_').
//
// A metric may carry labels: registering the same name with different
// label sets creates one cell per label set (all must share one kind —
// Prometheus allows one TYPE per name), and the exposition renders
// `name{key="value"} v` with HELP/TYPE emitted once per name. The serving
// layer uses this for per-reason rejection counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/window.hpp"

namespace mev::runtime {
class Clock;
}

namespace mev::obs {

/// Label set attached to a metric cell: ordered (key, value) pairs. Order
/// is part of the cell's identity — register with a consistent order.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Prometheus text-exposition escaping (pure string helpers; tests/obs
/// pins them). HELP text escapes
/// backslash and newline; label values additionally escape double quotes.
std::string prometheus_escape_help(std::string_view text);
std::string prometheus_escape_label_value(std::string_view value);
/// Renders a sample value the way Prometheus expects: NaN, +Inf, -Inf for
/// non-finite doubles, shortest round-trip decimal otherwise.
std::string prometheus_number(double v);

namespace detail {

enum class MetricKind { kCounter, kGauge, kHistogram, kWindowedHistogram };

/// One registered metric; exactly one of the payloads is active (by kind).
struct Metric {
  std::string name;
  std::string help;
  Labels labels;
  MetricKind kind;
  std::atomic<std::uint64_t> counter{0};
  std::atomic<double> gauge{0.0};
  mutable std::mutex histogram_mutex;
  Log2Histogram histogram;
  /// kWindowedHistogram only: the lock-free time-bucket ring behind the
  /// 1m/5m exposition, plus the clock that timestamps records and
  /// evaluates windows at scrape time. Atomic because every registration
  /// re-wires it (latest registrant wins) while recorders may be loading
  /// it concurrently: in a process-global registry the cell outlives any
  /// one registrant, so an injected clock must stay replaceable after its
  /// owner dies.
  std::unique_ptr<SlidingHistogram> window;
  std::atomic<runtime::Clock*> clock{nullptr};
};

}  // namespace detail

/// Monotonic counter handle. Default-constructed handles are inert no-ops.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) noexcept {
    if (cell_ != nullptr)
      cell_->counter.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return cell_ != nullptr ? cell_->counter.load(std::memory_order_relaxed)
                            : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::Metric* cell) noexcept : cell_(cell) {}
  detail::Metric* cell_ = nullptr;
};

/// Last-value gauge handle. Default-constructed handles are inert no-ops.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) noexcept {
    if (cell_ != nullptr) cell_->gauge.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return cell_ != nullptr ? cell_->gauge.load(std::memory_order_relaxed)
                            : 0.0;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::Metric* cell) noexcept : cell_(cell) {}
  detail::Metric* cell_ = nullptr;
};

/// Log2Histogram handle (thread-safe via a per-histogram mutex).
/// Default-constructed handles are inert no-ops.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) noexcept {
    if (cell_ == nullptr) return;
    std::lock_guard<std::mutex> lock(cell_->histogram_mutex);
    cell_->histogram.record(v);
  }
  Log2Histogram snapshot() const {
    if (cell_ == nullptr) return Log2Histogram{};
    std::lock_guard<std::mutex> lock(cell_->histogram_mutex);
    return cell_->histogram;
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::Metric* cell) noexcept : cell_(cell) {}
  detail::Metric* cell_ = nullptr;
};

/// Windowed histogram handle: one record feeds both the lifetime
/// Log2Histogram (under the cell mutex, like Histogram) and the lock-free
/// sliding ring, so /metrics exports 1m/5m percentiles next to lifetime
/// ones. Default-constructed handles are inert no-ops.
class WindowedHistogram {
 public:
  WindowedHistogram() = default;
  void record(std::uint64_t v) noexcept;
  Log2Histogram lifetime() const;

 private:
  friend class MetricsRegistry;
  explicit WindowedHistogram(detail::Metric* cell) noexcept : cell_(cell) {}
  detail::Metric* cell_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a metric and returns its handle. `help` is kept
  /// from the first registration. A (name, labels) pair names one cell;
  /// the same name may be registered with several label sets. Throws
  /// std::invalid_argument when the name is already registered as a
  /// different kind (with any label set — one TYPE per name).
  Counter counter(std::string_view name, std::string_view help = "",
                  Labels labels = {});
  Gauge gauge(std::string_view name, std::string_view help = "",
              Labels labels = {});
  Histogram histogram(std::string_view name, std::string_view help = "",
                      Labels labels = {});
  /// Windowed histogram: lifetime exposition identical to histogram(),
  /// plus a `<name>_window{window="1m"|"5m",stat=...}` gauge family with
  /// windowed p50/p95/p99/count. `clock` timestamps records and scrapes
  /// (nullptr = the system clock; inject a FakeClock for deterministic
  /// window tests). The ring is 60 x 5 s, the span of the longest export
  /// window. The clock is re-wired on EVERY registration (latest wins), so
  /// a registrant whose injected clock dies with it is superseded as
  /// soon as the next registrant constructs — required because the
  /// ambient process-global registry outlives any one service.
  WindowedHistogram windowed_histogram(std::string_view name,
                                       std::string_view help = "",
                                       runtime::Clock* clock = nullptr,
                                       Labels labels = {});

  std::size_t size() const;

  /// Prometheus text exposition format, version 0.0.4. Metric names are
  /// sanitized ('.'/'-' -> '_'); histograms export cumulative integer
  /// le buckets (the Log2Histogram power-of-two upper bounds) plus
  /// _sum/_count.
  void write_prometheus(std::ostream& os) const;
  std::string prometheus() const;

  /// JSON snapshot: {"counters":{...},"gauges":{...},"histograms":{...}},
  /// histograms as {count,mean,min,max,p50,p95,p99}.
  void write_json(std::ostream& os) const;
  std::string json() const;

 private:
  detail::Metric& find_or_create(std::string_view name, std::string_view help,
                                 detail::MetricKind kind,
                                 const Labels& labels);

  mutable std::mutex mutex_;  // guards metrics_ (registration + export)
  std::vector<std::unique_ptr<detail::Metric>> metrics_;  // insertion order
};

}  // namespace mev::obs
