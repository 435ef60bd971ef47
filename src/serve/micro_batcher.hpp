// Micro-batching policy: coalesce queued requests into batches of up to
// `max_batch_rows` rows. Batch formation is work-conserving — the worker
// flushes whatever it holds as soon as its rings run dry, and requests
// that arrive while it scores form the next batch, so batches grow with
// load instead of with a timer. A plain single-threaded state machine,
// shared by the real worker pool and the manual pump() mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "serve/request.hpp"

namespace mev::serve {

struct BatcherConfig {
  /// Largest batch, in rows. A single request larger than the cap forms
  /// its own (oversized) batch — requests are never split across batches.
  std::size_t max_batch_rows = 64;
};

/// A formed batch: whole requests, FIFO order.
struct Batch {
  std::vector<Request> requests;
  std::size_t rows = 0;
};

class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherConfig config);

  /// Enqueues a request (FIFO). The caller has already admission-checked.
  void add(Request request);

  std::size_t pending_rows() const noexcept { return pending_rows_; }
  bool empty() const noexcept { return pending_.empty(); }

  /// Moves every pending request whose deadline has passed into `expired`
  /// (FIFO order). The service fails these with RejectReason::kDeadline.
  void take_expired(std::uint64_t now_ms, std::vector<Request>& expired);

  /// Forms the next batch from the oldest pending requests, up to
  /// max_batch_rows; std::nullopt when nothing is pending. take_expired()
  /// should run first so expired requests are not scored.
  std::optional<Batch> poll();

  const BatcherConfig& config() const noexcept { return config_; }

 private:
  BatcherConfig config_;
  std::deque<Request> pending_;
  std::size_t pending_rows_ = 0;
};

}  // namespace mev::serve
