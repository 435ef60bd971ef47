// Oracle failure taxonomy. The resilience layer only needs one bit —
// retryable or not — but keeping the concrete kinds lets the stats
// distinguish a slow oracle from a flaky one.
#pragma once

#include <stdexcept>
#include <string>

namespace mev::runtime {

enum class FaultKind {
  kTransient,  // momentary failure; retry is expected to succeed
  kTimeout,    // the call exceeded its latency budget; retryable
  kGarbled,    // response arrived but is unusable (e.g. wrong length)
  kPermanent,  // retrying cannot help (bad request, auth, oracle gone)
};

inline const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kTransient: return "transient";
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kGarbled: return "garbled";
    case FaultKind::kPermanent: return "permanent";
  }
  return "unknown";
}

/// Base class for all oracle failures.
class OracleError : public std::runtime_error {
 public:
  OracleError(FaultKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  FaultKind kind() const noexcept { return kind_; }

  /// Whether the retry layer may re-submit the same batch.
  bool transient() const noexcept { return kind_ != FaultKind::kPermanent; }

 private:
  FaultKind kind_;
};

class TransientOracleError : public OracleError {
 public:
  explicit TransientOracleError(const std::string& what)
      : OracleError(FaultKind::kTransient, what) {}
};

class OracleTimeoutError : public OracleError {
 public:
  explicit OracleTimeoutError(const std::string& what)
      : OracleError(FaultKind::kTimeout, what) {}
};

class GarbledResponseError : public OracleError {
 public:
  explicit GarbledResponseError(const std::string& what)
      : OracleError(FaultKind::kGarbled, what) {}
};

class PermanentOracleError : public OracleError {
 public:
  explicit PermanentOracleError(const std::string& what)
      : OracleError(FaultKind::kPermanent, what) {}
};

}  // namespace mev::runtime
