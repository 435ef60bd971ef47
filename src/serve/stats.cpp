#include "serve/stats.hpp"

#include <sstream>

#include "serve/overload.hpp"

namespace mev::serve {

std::string ServiceStats::to_string() const {
  std::ostringstream os;
  os << "requests: accepted=" << accepted_requests << " (" << accepted_rows
     << " rows), completed=" << completed_requests << " (" << completed_rows
     << " rows), rejected=" << rejected_total()
     << " [queue_full=" << rejected_queue_full
     << " shutting_down=" << rejected_shutting_down
     << " deadline=" << rejected_deadline
     << " overloaded=" << rejected_overloaded
     << " internal=" << rejected_internal << "]\n";
  if (rejected_deadline > 0)
    os << "deadline expiry by stage: admission=" << expired_at_admission
       << " queue=" << expired_in_queue
       << " post_dequeue=" << expired_post_dequeue << "\n";
  os << "batches: " << batches << ", model_swaps: " << model_swaps
     << ", stolen=" << stolen_requests << ", spilled=" << spilled_submissions
     << "\n";
  if (batch_failures > 0 || callback_errors > 0 || worker_stalls > 0)
    os << "failures: batch_failures=" << batch_failures
       << " callback_errors=" << callback_errors
       << " worker_stalls=" << worker_stalls
       << " worker_recoveries=" << worker_recoveries
       << " stalled_now=" << stalled_workers << "\n";
  if (overload_state != 0 || shed_fraction > 0.0 || rejected_overloaded > 0)
    os << "overload: state="
       << mev::serve::to_string(static_cast<OverloadState>(overload_state))
       << " shed_fraction=" << shed_fraction << "\n";
  os << "slo: fast_burn=" << slo_fast_burn << " slow_burn=" << slo_slow_burn
     << " budget_remaining=" << slo_budget_remaining << "\n";
  os << "drift: psi=" << score_psi
     << " reference=" << (drift_reference_frozen ? "frozen" : "capturing")
     << "\n";
  const auto line = [&os](const char* name, const obs::Log2Histogram& h,
                          const char* unit) {
    const obs::LatencySummary s = obs::summarize(h);
    os << name << ": n=" << s.count << " mean=" << s.mean << unit
       << " p50=" << s.p50 << unit << " p95=" << s.p95 << unit
       << " p99=" << s.p99 << unit << " max=" << s.max << unit << "\n";
  };
  line("batch_rows", batch_rows, "");
  line("queue_delay", queue_delay_us, "us");
  line("e2e_latency", e2e_latency_us, "us");
  return os.str();
}

}  // namespace mev::serve
