#include "net/client_stats.hpp"

#include "obs/json.hpp"
#include "obs/scope.hpp"

namespace mev::net {

namespace {

constexpr const char* kOverflowLabel = "(overflow)";

}  // namespace

ClientStatsTracker::ClientStatsTracker(ClientStatsConfig config,
                                       obs::MetricsRegistry* registry)
    : config_(config), registry_(obs::resolve(registry)) {
  if (config_.max_clients == 0) config_.max_clients = 1;
}

ClientEntry* ClientStatsTracker::entry(std::string_view client) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto found = index_.find(std::string(client));
  if (found != index_.end()) return found->second;
  // At the cap, every new label shares the overflow entry (created on
  // first use; it does not count against the cap so the last real slot is
  // never wasted on it).
  std::string_view label = client;
  if (entries_.size() >= config_.max_clients) {
    const auto overflow = index_.find(kOverflowLabel);
    if (overflow != index_.end()) return overflow->second;
    label = kOverflowLabel;
  }
  auto fresh = std::make_unique<ClientEntry>(std::string(label));
  fresh->psi_gauge = registry_->gauge(
      "mev.net.client_psi",
      "per-client score-distribution PSI vs the client's frozen reference",
      {{"client", fresh->client}});
  ClientEntry* raw = fresh.get();
  index_.emplace(raw->client, raw);
  entries_.push_back(std::move(fresh));
  return raw;
}

std::size_t ClientStatsTracker::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::string ClientStatsTracker::to_json(std::uint64_t now_us) {
  std::vector<ClientEntry*> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.reserve(entries_.size());
    for (const auto& entry : entries_) snapshot.push_back(entry.get());
  }
  std::string out = "{\"window_s\":";
  out += std::to_string(kClientWindow.span_us() / 1'000'000);
  out += ",\"clients\":[";
  bool first = true;
  for (ClientEntry* entry : snapshot) {
    if (!first) out += ',';
    first = false;
    const std::uint64_t requests = entry->requests.total(now_us);
    const std::uint64_t rejected = entry->rejected.total(now_us);
    out += "{\"client\":";
    obs::json::append_string(out, entry->client);
    out += ",\"requests_per_s\":";
    obs::json::append_fixed6(out, entry->requests.rate_per_s(now_us));
    out += ",\"rows_per_s\":";
    obs::json::append_fixed6(out, entry->rows.rate_per_s(now_us));
    out += ",\"reject_rate\":";
    obs::json::append_fixed6(out, requests != 0
                                      ? static_cast<double>(rejected) /
                                            static_cast<double>(requests)
                                      : 0.0);
    out += ",\"score_psi\":";
    obs::json::append_fixed6(out, entry->refresh_psi(now_us));
    out += ",\"reference_frozen\":";
    out += entry->drift.reference_frozen() ? "true" : "false";
    out += ",\"lifetime_requests\":";
    out += std::to_string(
        entry->lifetime_requests.load(std::memory_order_relaxed));
    out += ",\"lifetime_rows\":";
    out += std::to_string(
        entry->lifetime_rows.load(std::memory_order_relaxed));
    out += ",\"lifetime_rejected\":";
    out += std::to_string(
        entry->lifetime_rejected.load(std::memory_order_relaxed));
    out += '}';
  }
  out += "]}\n";
  return out;
}

}  // namespace mev::net
