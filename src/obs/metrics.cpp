#include "obs/metrics.hpp"

#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "runtime/clock.hpp"

namespace mev::obs {

std::string prometheus_escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

std::string prometheus_escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

std::string prometheus_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::string out;
  json::append_number(out, v);
  return out;
}

namespace {

const char* kind_name(detail::MetricKind kind) {
  switch (kind) {
    case detail::MetricKind::kCounter: return "counter";
    case detail::MetricKind::kGauge: return "gauge";
    case detail::MetricKind::kHistogram: return "histogram";
    case detail::MetricKind::kWindowedHistogram: return "windowed_histogram";
  }
  return "?";
}

/// The windows exported next to a windowed histogram's lifetime series.
constexpr struct {
  const char* label;
  std::uint64_t window_us;
} kExportWindows[] = {{"1m", 60'000'000}, {"5m", 300'000'000}};

/// A windowed histogram's ring: 60 x 5 s, the span of the 5m window.
constexpr WindowConfig kHistogramRing{5'000'000, 60};

/// Prometheus metric names allow [a-zA-Z0-9_:]; map our dotted
/// `mev.<layer>.<op>` convention (and any other byte) onto '_'.
std::string sanitize_prometheus(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

/// `{key="value",...}` suffix for a labeled sample, "" when unlabeled.
/// `extra` appends one more pair (histogram `le`) without copying the set.
std::string render_labels(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += sanitize_prometheus(key) + "=\"" +
           prometheus_escape_label_value(value) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

}  // namespace

detail::Metric& MetricsRegistry::find_or_create(std::string_view name,
                                                std::string_view help,
                                                detail::MetricKind kind,
                                                const Labels& labels) {
  if (name.empty())
    throw std::invalid_argument("MetricsRegistry: empty metric name");
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& metric : metrics_) {
    if (metric->name != name) continue;
    // One TYPE per name: every label set under a name shares a kind.
    if (metric->kind != kind)
      throw std::invalid_argument(
          "MetricsRegistry: metric '" + std::string(name) +
          "' already registered as a " + kind_name(metric->kind) +
          ", requested as a " + kind_name(kind));
    if (metric->labels == labels) return *metric;
  }
  auto metric = std::make_unique<detail::Metric>();
  metric->name = std::string(name);
  metric->help = std::string(help);
  metric->labels = labels;
  metric->kind = kind;
  metrics_.push_back(std::move(metric));
  return *metrics_.back();
}

Counter MetricsRegistry::counter(std::string_view name, std::string_view help,
                                 Labels labels) {
  return Counter(
      &find_or_create(name, help, detail::MetricKind::kCounter, labels));
}

Gauge MetricsRegistry::gauge(std::string_view name, std::string_view help,
                             Labels labels) {
  return Gauge(&find_or_create(name, help, detail::MetricKind::kGauge,
                               labels));
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::string_view help, Labels labels) {
  return Histogram(
      &find_or_create(name, help, detail::MetricKind::kHistogram, labels));
}

WindowedHistogram MetricsRegistry::windowed_histogram(std::string_view name,
                                                      std::string_view help,
                                                      runtime::Clock* clock,
                                                      Labels labels) {
  detail::Metric& cell = find_or_create(
      name, help, detail::MetricKind::kWindowedHistogram, labels);
  {
    // First registration wires the ring; EVERY registration re-wires the
    // clock, latest wins. The registry cell can outlive any one
    // registrant, so a service that injected a short-lived FakeClock must
    // be superseded by the next registrant before anyone dereferences the
    // stale pointer — re-registering is what makes the cell safe again.
    std::lock_guard<std::mutex> lock(cell.histogram_mutex);
    if (cell.window == nullptr)
      cell.window = std::make_unique<SlidingHistogram>(kHistogramRing);
    cell.clock.store(
        clock != nullptr ? clock : &runtime::SystemClock::instance(),
        std::memory_order_release);
  }
  return WindowedHistogram(&cell);
}

void WindowedHistogram::record(std::uint64_t v) noexcept {
  if (cell_ == nullptr) return;
  const std::uint64_t now_us =
      cell_->clock.load(std::memory_order_acquire)->now_us();
  {
    std::lock_guard<std::mutex> lock(cell_->histogram_mutex);
    cell_->histogram.record(v);
  }
  cell_->window->record(now_us, v);
}

Log2Histogram WindowedHistogram::lifetime() const {
  if (cell_ == nullptr) return Log2Histogram{};
  std::lock_guard<std::mutex> lock(cell_->histogram_mutex);
  return cell_->histogram;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.size();
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::string out;
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> emitted_headers;  // names whose HELP/TYPE are out
  for (const auto& metric : metrics_) {
    const std::string name = sanitize_prometheus(metric->name);
    const std::string labels = render_labels(metric->labels);
    // HELP/TYPE once per name, even when several label sets share it.
    bool header_done = false;
    for (const auto& seen : emitted_headers) header_done |= seen == name;
    if (!header_done) {
      emitted_headers.push_back(name);
      if (!metric->help.empty())
        out += "# HELP " + name + " " + prometheus_escape_help(metric->help) +
               "\n";
      // A windowed histogram's lifetime family IS a histogram to scrapers.
      const char* type =
          metric->kind == detail::MetricKind::kWindowedHistogram
              ? "histogram"
              : kind_name(metric->kind);
      out += "# TYPE " + name + " " + std::string(type) + "\n";
    }
    switch (metric->kind) {
      case detail::MetricKind::kCounter:
        out += name + labels + " " +
               std::to_string(
                   metric->counter.load(std::memory_order_relaxed)) +
               "\n";
        break;
      case detail::MetricKind::kGauge:
        out += name + labels + " " +
               prometheus_number(
                   metric->gauge.load(std::memory_order_relaxed)) +
               "\n";
        break;
      case detail::MetricKind::kHistogram:
      case detail::MetricKind::kWindowedHistogram: {
        Log2Histogram h;
        {
          std::lock_guard<std::mutex> hist_lock(metric->histogram_mutex);
          h = metric->histogram;
        }
        // Cumulative le buckets up to the last occupied one, then +Inf.
        std::size_t last = 0;
        for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i)
          if (h.bucket_count(i) > 0) last = i;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i <= last && h.count() > 0; ++i) {
          cumulative += h.bucket_count(i);
          out += name + "_bucket" +
                 render_labels(metric->labels,
                               "le=\"" +
                                   prometheus_escape_label_value(std::to_string(
                                       Log2Histogram::bucket_upper_bound(i))) +
                                   "\"") +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket" +
               render_labels(metric->labels, "le=\"+Inf\"") + " " +
               std::to_string(h.count()) + "\n";
        out += name + "_sum" + labels + " " + prometheus_number(h.sum()) +
               "\n";
        out += name + "_count" + labels + " " + std::to_string(h.count()) +
               "\n";
        if (metric->kind != detail::MetricKind::kWindowedHistogram) break;
        // Windowed digests next to the lifetime family: a gauge family
        // `<name>_window{window=...,stat=...}`, evaluated at scrape time.
        const std::string wname = name + "_window";
        bool wheader_done = false;
        for (const auto& seen : emitted_headers)
          wheader_done |= seen == wname;
        if (!wheader_done) {
          emitted_headers.push_back(wname);
          out += "# HELP " + wname +
                 " windowed p50/p95/p99/count of " + name + "\n";
          out += "# TYPE " + wname + " gauge\n";
        }
        const std::uint64_t now_us =
            metric->clock.load(std::memory_order_acquire)->now_us();
        for (const auto& w : kExportWindows) {
          const Log2Histogram merged =
              metric->window->merged(now_us, w.window_us);
          const LatencySummary s = summarize(merged);
          const auto sample = [&](const char* stat, double v) {
            out += wname +
                   render_labels(metric->labels,
                                 std::string("window=\"") + w.label +
                                     "\",stat=\"" + stat + "\"") +
                   " " + prometheus_number(v) + "\n";
          };
          sample("p50", s.p50);
          sample("p95", s.p95);
          sample("p99", s.p99);
          sample("count", static_cast<double>(s.count));
        }
        break;
      }
    }
  }
  os << out;
}

std::string MetricsRegistry::prometheus() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::string counters, gauges, histograms;
  // Built with += only: operator+ on a temporary trips GCC 12's bogus
  // -Wrestrict under -Werror (GCC PR105651).
  const auto field = [](std::string& out, const char* name, double v) {
    out += ",\"";
    out += name;
    out += "\":";
    json::append_number(out, v);
  };
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& metric : metrics_) {
    // Labeled cells key as `name{key=value,...}` so every cell stays
    // addressable in the snapshot.
    std::string key = metric->name;
    if (!metric->labels.empty()) {
      key += '{';
      bool first = true;
      for (const auto& [k, v] : metric->labels) {
        if (!first) key += ',';
        first = false;
        key += k;
        key += '=';
        key += v;
      }
      key += '}';
    }
    std::string& out = metric->kind == detail::MetricKind::kCounter ? counters
                       : metric->kind == detail::MetricKind::kGauge
                           ? gauges
                           : histograms;
    if (!out.empty()) out += ',';
    json::append_string(out, key);
    out += ':';
    switch (metric->kind) {
      case detail::MetricKind::kCounter:
        out += std::to_string(metric->counter.load(std::memory_order_relaxed));
        break;
      case detail::MetricKind::kGauge:
        json::append_number(out,
                            metric->gauge.load(std::memory_order_relaxed));
        break;
      case detail::MetricKind::kHistogram:
      case detail::MetricKind::kWindowedHistogram: {
        Log2Histogram h;
        {
          std::lock_guard<std::mutex> hist_lock(metric->histogram_mutex);
          h = metric->histogram;
        }
        const LatencySummary s = summarize(h);
        out += "{\"count\":";
        out += std::to_string(s.count);
        field(out, "mean", s.mean);
        out += ",\"min\":";
        out += std::to_string(h.min());
        out += ",\"max\":";
        out += std::to_string(s.max);
        field(out, "p50", s.p50);
        field(out, "p95", s.p95);
        field(out, "p99", s.p99);
        if (metric->kind == detail::MetricKind::kWindowedHistogram) {
          const std::uint64_t now_us =
              metric->clock.load(std::memory_order_acquire)->now_us();
          for (const auto& w : kExportWindows) {
            const LatencySummary ws =
                summarize(metric->window->merged(now_us, w.window_us));
            out += ",\"window_";
            out += w.label;
            out += "\":{\"count\":";
            out += std::to_string(ws.count);
            field(out, "p50", ws.p50);
            field(out, "p95", ws.p95);
            field(out, "p99", ws.p99);
            out += '}';
          }
        }
        out += '}';
        break;
      }
    }
  }
  os << "{\"counters\":{" << counters << "},\"gauges\":{" << gauges
     << "},\"histograms\":{" << histograms << "}}\n";
}

std::string MetricsRegistry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace mev::obs
