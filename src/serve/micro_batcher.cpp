#include "serve/micro_batcher.hpp"

#include <stdexcept>
#include <utility>

namespace mev::serve {

MicroBatcher::MicroBatcher(BatcherConfig config) : config_(config) {
  if (config_.max_batch_rows == 0)
    throw std::invalid_argument("MicroBatcher: max_batch_rows must be > 0");
}

void MicroBatcher::add(Request request) {
  pending_rows_ += request.counts.rows();
  pending_.push_back(std::move(request));
}

void MicroBatcher::take_expired(std::uint64_t now_ms,
                                std::vector<Request>& expired) {
  // Expiry can hit any position (deadlines are per-request), so scan the
  // whole queue, keeping FIFO order among survivors.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->expired(now_ms)) {
      pending_rows_ -= it->counts.rows();
      expired.push_back(std::move(*it));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<Batch> MicroBatcher::poll() {
  if (pending_.empty()) return std::nullopt;
  Batch batch;
  while (!pending_.empty()) {
    const std::size_t next_rows = pending_.front().counts.rows();
    // Whole requests only; always take at least one so an oversized
    // request still makes progress (as its own batch).
    if (!batch.requests.empty() &&
        batch.rows + next_rows > config_.max_batch_rows)
      break;
    batch.rows += next_rows;
    pending_rows_ -= next_rows;
    batch.requests.push_back(std::move(pending_.front()));
    pending_.pop_front();
    if (batch.rows >= config_.max_batch_rows) break;
  }
  return batch;
}

}  // namespace mev::serve
