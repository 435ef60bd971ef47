// Per-client (API-key) query observability for the scoring frontend:
// windowed request/row/rejection rates plus a per-client score-drift PSI,
// keyed through net::ApiKeyLimiter's client identity (the label half of
// an ApiKey, never the secret). Served as JSON on the admin plane's
// /clientz and mirrored as mev.net.client_psi{client=...} gauges.
//
// Why per-client: the paper's black-box attacker is one caller among
// many. Aggregate drift (serve/drift.hpp on the whole service) says "the
// query mix moved"; the per-client PSI says *whose* — a probing client's
// confidence distribution shifts while benign clients' stay flat.
//
// The rate windows span 60 s (kClientWindow). Each client's drift tracker
// uses serve/drift.hpp's window and reference size, like the service's.
//
// Cardinality is bounded: at most `max_clients` tracked entries; callers
// beyond the cap collapse into one synthetic "(overflow)" entry so a
// key-churning attacker cannot balloon this table (the cap is logged via
// the overflow entry itself — its activity IS the signal). Entries are
// heap-held and never evicted, so a pointer handed to an in-flight
// request callback stays valid for the tracker's lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/window.hpp"
#include "serve/drift.hpp"

namespace mev::net {

/// Geometry of the per-client rate windows (requests/rows/rejections):
/// 12 x 5 s = 60 s.
inline constexpr obs::WindowConfig kClientWindow{5'000'000, 12};

struct ClientStatsConfig {
  /// Tracked client labels before new ones collapse into "(overflow)".
  std::size_t max_clients = 64;
};

/// One tracked client. Recording methods are lock-free (window adds +
/// relaxed atomics); the tracker's mutex guards only entry creation.
struct ClientEntry {
  explicit ClientEntry(std::string label) : client(std::move(label)) {}

  /// One admitted-or-rate-limited request reaching the limiter.
  void record_request(std::uint64_t now_us, std::uint64_t row_count) noexcept {
    requests.add(now_us);
    rows.add(now_us, row_count);
    lifetime_requests.fetch_add(1, std::memory_order_relaxed);
    lifetime_rows.fetch_add(row_count, std::memory_order_relaxed);
  }
  /// One rejection charged to this client (429 at the limiter, or a
  /// service-side rejection at completion).
  void record_reject(std::uint64_t now_us) noexcept {
    rejected.add(now_us);
    lifetime_rejected.fetch_add(1, std::memory_order_relaxed);
  }
  /// One verdict confidence from a completed score request.
  void record_score(std::uint64_t now_us, double score) noexcept {
    drift.record(now_us, score);
  }
  /// Recomputes this client's PSI and pushes it into the gauge mirror.
  double refresh_psi(std::uint64_t now_us) noexcept {
    const double value = drift.psi(now_us);
    psi_gauge.set(value);
    return value;
  }

  const std::string client;
  obs::SlidingCounter requests{kClientWindow};
  obs::SlidingCounter rows{kClientWindow};
  obs::SlidingCounter rejected{kClientWindow};
  serve::ScoreDrift drift;
  obs::Gauge psi_gauge;
  std::atomic<std::uint64_t> lifetime_requests{0};
  std::atomic<std::uint64_t> lifetime_rows{0};
  std::atomic<std::uint64_t> lifetime_rejected{0};
};

class ClientStatsTracker {
 public:
  /// `registry` backs the per-client PSI gauges (nullptr = ambient);
  /// both must outlive the tracker.
  explicit ClientStatsTracker(ClientStatsConfig config = {},
                              obs::MetricsRegistry* registry = nullptr);

  ClientStatsTracker(const ClientStatsTracker&) = delete;
  ClientStatsTracker& operator=(const ClientStatsTracker&) = delete;

  /// Finds or creates the entry for `client`. Beyond max_clients every
  /// new label maps to the shared "(overflow)" entry. Returned pointer
  /// stays valid for the tracker's lifetime.
  ClientEntry* entry(std::string_view client);

  /// Number of tracked entries, the overflow entry included.
  std::size_t size() const;

  /// The /clientz body: {"clients":[{"client","window_s",
  /// "requests_per_s","rows_per_s","reject_rate","score_psi",
  /// "reference_frozen","lifetime_requests","lifetime_rows",
  /// "lifetime_rejected"},...]} — refreshes every PSI gauge as it goes.
  std::string to_json(std::uint64_t now_us);

  const ClientStatsConfig& config() const noexcept { return config_; }

 private:
  ClientStatsConfig config_;
  obs::MetricsRegistry* registry_;
  mutable std::mutex mutex_;  // guards the map + insertion order
  std::unordered_map<std::string, ClientEntry*> index_;
  std::vector<std::unique_ptr<ClientEntry>> entries_;
};

}  // namespace mev::net
