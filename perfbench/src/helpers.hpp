// Pure helpers of the benchmark driver: percentiles under the
// ten-samples-beyond rule, seeded Poisson arrival schedules, Server-Timing
// parsing, and the span log with its self-time and Chrome-trace output.
// No sockets and no library calls, so tests/test_helpers.cpp covers each
// one in isolation.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles

/// A percentile over successes plus failures. Failures rank above every
/// success (a failed or refused request misses any latency limit). The
/// value is reported only when at least `kMinBeyond` samples lie beyond
/// its rank; `miss` means the rank fell on a failure.
inline constexpr std::size_t kMinBeyond = 10;
/// Fewest repeated calls whose median has kMinBeyond samples beyond it.
inline constexpr std::size_t kMinCalls = 2 * kMinBeyond + 1;

struct Percentile {
  bool reported = false;
  bool miss = false;
  double value = 0.0;
  std::size_t samples = 0;  // successes + failures
  std::size_t beyond = 0;   // samples ranked above the reported one
};

/// Nearest-rank percentile: rank k = ceil(q * n), 1-based.
inline Percentile percentile(std::vector<double> ok, std::size_t failures,
                             double q) {
  Percentile p;
  p.samples = ok.size() + failures;
  if (p.samples == 0) return p;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(p.samples) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, p.samples);
  p.beyond = p.samples - rank;
  p.reported = p.beyond >= kMinBeyond;
  if (rank > ok.size()) {
    p.miss = true;
    return p;
  }
  std::nth_element(ok.begin(), ok.begin() + static_cast<long>(rank - 1),
                   ok.end());
  p.value = ok[rank - 1];
  return p;
}

/// Plain median of a non-empty sample (mean of the middle pair when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Arrival schedules

/// Poisson arrival offsets in seconds from the phase start: `n` arrivals
/// at `rate_per_s`. The generator and the inverse-CDF draw are spelled
/// out, so a seed gives the same schedule on every platform.
inline std::vector<double> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s, std::size_t n) {
  std::mt19937_64 gen(seed);
  std::vector<double> at(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u =
        static_cast<double>(gen() >> 11) * (1.0 / 9007199254740992.0);
    t += -std::log1p(-u) / rate_per_s;
    at[i] = t;
  }
  return at;
}

/// Stream seed for one named purpose (schedule, row choice, ...) derived
/// from the run seed, so streams stay independent of each other.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Server-Timing

/// The six stages the scoring frontend stamps, in telescoping order.
inline constexpr std::size_t kStages = 6;
inline constexpr std::array<const char*, kStages> kStageNames = {
    "parse", "admission", "queue", "batch", "scan", "serialize"};

struct ServerTiming {
  std::array<double, kStages> stage_ms{};
  double total_ms = 0.0;
};

/// Parses `parse;dur=0.012, admission;dur=0.001, ..., total;dur=0.4`.
/// Every stage and `total` must appear exactly once with a finite,
/// non-negative duration; unknown metric names are ignored.
inline std::optional<ServerTiming> parse_server_timing(
    std::string_view header) {
  ServerTiming out;
  std::array<bool, kStages + 1> seen{};
  while (!header.empty()) {
    const std::size_t comma = header.find(',');
    std::string_view entry = header.substr(0, comma);
    header = comma == std::string_view::npos ? std::string_view{}
                                             : header.substr(comma + 1);
    while (!entry.empty() && entry.front() == ' ') entry.remove_prefix(1);
    while (!entry.empty() && entry.back() == ' ') entry.remove_suffix(1);
    if (entry.empty()) continue;
    const std::size_t semi = entry.find(';');
    if (semi == std::string_view::npos) continue;
    const std::string_view name = entry.substr(0, semi);
    const std::string_view params = entry.substr(semi + 1);
    const std::size_t dur = params.find("dur=");
    if (dur == std::string_view::npos) return std::nullopt;
    const std::string value(params.substr(dur + 4));
    char* end = nullptr;
    const double ms = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || !std::isfinite(ms) || ms < 0.0)
      return std::nullopt;
    std::size_t slot = kStages + 1;
    for (std::size_t i = 0; i < kStages; ++i)
      if (name == kStageNames[i]) slot = i;
    if (name == "total") slot = kStages;
    if (slot > kStages) continue;
    if (seen[slot]) return std::nullopt;
    seen[slot] = true;
    if (slot == kStages)
      out.total_ms = ms;
    else
      out.stage_ms[slot] = ms;
  }
  for (const bool s : seen)
    if (!s) return std::nullopt;
  return out;
}

// ---------------------------------------------------------------------------
// Spans

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One span: a named interval around a call into a layer. The layer is
/// the name's prefix before the first '.'. Names are string literals, so
/// recording a span never allocates beyond the log's own growth.
struct Span {
  const char* name = "";  // a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      // 1-based; 0 = none
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t request = 0; // spans of one request share it; 0 = none
};

inline std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

/// In-memory span log, written out once at the end. Disabled logs record
/// nothing and cost one branch per call. Recorded from a single thread.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  std::uint32_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent = 0,
                    std::uint64_t request = 0) {
    if (!enabled_) return 0;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{name, start_ns, end_ns, id, parent,
                          request});
    return id;
  }

  /// Opens a span now whose children are recorded before it closes.
  std::uint32_t begin(const char* name, std::uint32_t parent = 0) {
    const std::int64_t t = now_ns();
    return add(name, t, t, parent);
  }
  void end(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per-layer self time in seconds: each span's duration minus the part
  /// of its interval its children cover (children clipped to the parent,
  /// overlapping children counted once).
  std::map<std::string, double> self_seconds() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_)
      if (s.parent != 0 && s.parent <= spans_.size())
        kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      std::int64_t covered = 0;
      std::int64_t cursor = s.start_ns;
      for (auto [a, b] : k) {
        a = std::max(a, cursor);
        b = std::min(b, s.end_ns);
        if (b > a) {
          covered += b - a;
          cursor = b;
        }
      }
      const std::int64_t self =
          std::max<std::int64_t>(0, s.end_ns - s.start_ns - covered);
      out[std::string(layer_of(s.name))] += static_cast<double>(self) * 1e-9;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome(std::ostream& os) const {
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i) os << ",\n";
      os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_of(s.name)
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(s.start_ns - base) * 1e-3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
         << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"request\":" << s.request << "}}";
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
