#include "obs/slo.hpp"

#include "obs/json.hpp"

namespace mev::obs {

namespace {

WindowConfig ring_config(const SloConfig& config) noexcept {
  WindowConfig w;
  w.bucket_us = config.bucket_us;
  w.buckets = config.buckets;
  return w;
}

double burn(std::uint64_t bad, std::uint64_t total,
            double objective) noexcept {
  if (total == 0) return 0.0;
  const double budget = 1.0 - objective;
  if (budget <= 0.0) return 0.0;  // a 100% objective has no budget to burn
  return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
}

void append_objective_json(std::string& out, const char* name,
                           const SloTracker::Objective& o) {
  out += '"';
  out += name;
  out += "\":{\"objective\":";
  json::append_fixed6(out, o.objective);
  out += ",\"fast_burn_rate\":";
  json::append_fixed6(out, o.fast_burn);
  out += ",\"slow_burn_rate\":";
  json::append_fixed6(out, o.slow_burn);
  out += ",\"error_budget_remaining\":";
  json::append_fixed6(out, o.budget_remaining);
  out += ",\"fast_total\":";
  out += std::to_string(o.fast_total);
  out += ",\"fast_bad\":";
  out += std::to_string(o.fast_bad);
  out += ",\"slow_total\":";
  out += std::to_string(o.slow_total);
  out += ",\"slow_bad\":";
  out += std::to_string(o.slow_bad);
  out += ",\"lifetime_total\":";
  out += std::to_string(o.lifetime_total);
  out += ",\"lifetime_bad\":";
  out += std::to_string(o.lifetime_bad);
  out += '}';
}

}  // namespace

SloTracker::SloTracker(SloConfig config)
    : config_(config),
      availability_(ring_config(config_)),
      latency_(ring_config(config_)) {}

void SloTracker::record(std::uint64_t now_us, bool ok,
                        std::uint64_t latency_us) noexcept {
  availability_.total.add(now_us);
  availability_.lifetime_total.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    availability_.bad.add(now_us);
    availability_.lifetime_bad.fetch_add(1, std::memory_order_relaxed);
    return;  // rejected requests have no meaningful latency sample
  }
  latency_.total.add(now_us);
  latency_.lifetime_total.fetch_add(1, std::memory_order_relaxed);
  if (latency_us > config_.latency_threshold_us) {
    latency_.bad.add(now_us);
    latency_.lifetime_bad.fetch_add(1, std::memory_order_relaxed);
  }
}

SloTracker::Objective SloTracker::read(const WindowedObjective& w,
                                       double objective,
                                       std::uint64_t now_us) const noexcept {
  Objective o;
  o.objective = objective;
  o.fast_total = w.total.total(now_us, config_.fast_window_us);
  o.fast_bad = w.bad.total(now_us, config_.fast_window_us);
  o.slow_total = w.total.total(now_us, config_.slow_window_us);
  o.slow_bad = w.bad.total(now_us, config_.slow_window_us);
  o.fast_burn = burn(o.fast_bad, o.fast_total, objective);
  o.slow_burn = burn(o.slow_bad, o.slow_total, objective);
  o.lifetime_total = w.lifetime_total.load(std::memory_order_relaxed);
  o.lifetime_bad = w.lifetime_bad.load(std::memory_order_relaxed);
  o.budget_remaining =
      o.lifetime_total == 0
          ? 1.0
          : 1.0 - burn(o.lifetime_bad, o.lifetime_total, objective);
  return o;
}

SloTracker::Snapshot SloTracker::snapshot(std::uint64_t now_us) const noexcept {
  Snapshot s;
  s.availability =
      read(availability_, config_.availability_objective, now_us);
  s.latency = read(latency_, config_.latency_objective, now_us);
  s.fast_burn_alert = s.availability.fast_burn > config_.fast_burn_alert ||
                      s.latency.fast_burn > config_.fast_burn_alert;
  return s;
}

std::string SloTracker::to_json(std::uint64_t now_us) const {
  const Snapshot s = snapshot(now_us);
  std::string out = "{";
  append_objective_json(out, "availability", s.availability);
  out += ',';
  append_objective_json(out, "latency", s.latency);
  out += ",\"fast_burn_alert\":";
  out += s.fast_burn_alert ? "true" : "false";
  out += ",\"fast_window_s\":";
  out += std::to_string(config_.fast_window_us / 1'000'000);
  out += ",\"slow_window_s\":";
  out += std::to_string(config_.slow_window_us / 1'000'000);
  out += ",\"latency_threshold_us\":";
  out += std::to_string(config_.latency_threshold_us);
  out += "}\n";
  return out;
}

void SloTracker::register_gauges(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const auto make = [registry](const char* objective) {
    ObjectiveGauges g;
    g.fast_burn = registry->gauge(
        "mev.slo.fast_burn_rate",
        "error-budget burn multiple over the fast (~5m) window",
        {{"objective", objective}});
    g.slow_burn = registry->gauge(
        "mev.slo.slow_burn_rate",
        "error-budget burn multiple over the slow (~1h) window",
        {{"objective", objective}});
    g.budget_remaining = registry->gauge(
        "mev.slo.error_budget_remaining",
        "lifetime error budget remaining (1 = untouched, <0 = overspent)",
        {{"objective", objective}});
    return g;
  };
  availability_gauges_ = make("availability");
  latency_gauges_ = make("latency");
}

void SloTracker::refresh_gauges(std::uint64_t now_us) noexcept {
  const Snapshot s = snapshot(now_us);
  availability_gauges_.fast_burn.set(s.availability.fast_burn);
  availability_gauges_.slow_burn.set(s.availability.slow_burn);
  availability_gauges_.budget_remaining.set(s.availability.budget_remaining);
  latency_gauges_.fast_burn.set(s.latency.fast_burn);
  latency_gauges_.slow_burn.set(s.latency.slow_burn);
  latency_gauges_.budget_remaining.set(s.latency.budget_remaining);
}

}  // namespace mev::obs
