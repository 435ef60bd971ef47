#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace mev::obs {

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void append_event_ids_and_args(std::string& out, const TraceEvent& e) {
  if (e.trace_id != 0) {
    // Hex strings, not JSON numbers: 64-bit ids do not survive a double.
    // Chrome's viewer ignores unknown keys; /requestz and tests read them.
    out += ",\"trace_id\":\"";
    out += format_hex64(e.trace_id);
    out += "\",\"span_id\":\"";
    out += format_hex64(e.span_id);
    out += '"';
    if (e.parent_span_id != 0) {
      out += ",\"parent_span_id\":\"";
      out += format_hex64(e.parent_span_id);
      out += '"';
    }
  }
  if (e.num_args > 0) {
    out += ",\"args\":{";
    for (std::uint8_t a = 0; a < e.num_args; ++a) {
      if (a > 0) out += ',';
      json::append_string(out, e.args[a].key);
      out += ':';
      json::append_number(out, e.args[a].value);
    }
    out += '}';
  }
}

void append_chrome_event(std::string& out, const TraceEvent& e) {
  out += "{\"name\":";
  json::append_string(out, e.name);
  out += ",\"cat\":\"mev\",\"ph\":\"";
  out += e.phase;
  out += "\",\"pid\":1,\"tid\":";
  out += std::to_string(e.tid);
  out += ",\"ts\":";
  out += std::to_string(e.ts_us);
  if (e.phase == 'X') {
    out += ",\"dur\":";
    out += std::to_string(e.dur_us);
  } else if (e.phase == 'i') {
    out += ",\"s\":\"t\"";
  }
  append_event_ids_and_args(out, e);
  out += '}';
}

void Span::finish() noexcept {
  Tracer* tracer = std::exchange(tracer_, nullptr);
  if (tracer == nullptr) return;
  TraceEvent event;
  event.name = name_;
  event.phase = 'X';
  event.ts_us = start_us_;
  const std::uint64_t now = tracer->clock().now_us();
  event.dur_us = now >= start_us_ ? now - start_us_ : 0;
  event.trace_id = ctx_.trace_id;
  event.span_id = ctx_.span_id;
  event.parent_span_id = parent_span_;
  event.args = args_;
  event.num_args = num_args_;
  tracer->emit(event);
}

Tracer::Tracer(TracerConfig config)
    : id_(next_tracer_id()),
      config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : &runtime::SystemClock::instance()),
      ids_(clock_->now_us()),
      enabled_(config.enabled) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
}

void Tracer::complete_span(const char* name, TraceContext parent,
                           std::uint64_t start_us,
                           std::uint64_t end_us) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  complete_span(name, make_context(parent), parent.span_id, start_us, end_us);
}

void Tracer::complete_span(const char* name, TraceContext self,
                           std::uint64_t parent_span_id,
                           std::uint64_t start_us,
                           std::uint64_t end_us) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  TraceEvent event;
  event.name = name;
  event.phase = 'X';
  event.ts_us = start_us;
  event.dur_us = end_us >= start_us ? end_us - start_us : 0;
  event.trace_id = self.trace_id;
  event.span_id = self.span_id;
  event.parent_span_id = parent_span_id;
  emit(event);
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // Per-thread cache of (tracer id -> buffer). Ids are process-unique and
  // never reused, so an entry for a dead tracer can never be returned for
  // a live one; stale entries cost a pointer-pair per dead tracer.
  thread_local std::vector<std::pair<std::uint64_t, ThreadBuffer*>> cache;
  for (const auto& [id, buffer] : cache)
    if (id == id_) return *buffer;
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(
      std::make_unique<ThreadBuffer>(config_.ring_capacity, next_tid_++));
  ThreadBuffer* raw = buffers_.back().get();
  cache.emplace_back(id_, raw);
  return *raw;
}

void Tracer::emit(TraceEvent event) noexcept {
  ThreadBuffer& buffer = local_buffer();
  const std::size_t n = buffer.size.load(std::memory_order_relaxed);
  if (n >= buffer.events.size()) {
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event.tid = buffer.tid;
  buffer.events[n] = event;
  buffer.size.store(n + 1, std::memory_order_release);
}

void Tracer::instant(const char* name) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  TraceEvent event;
  event.name = name;
  event.phase = 'i';
  event.ts_us = clock_->now_us();
  emit(event);
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_)
    total += buffer->size.load(std::memory_order_acquire);
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_)
    total += buffer->dropped.load(std::memory_order_relaxed);
  return total;
}

std::vector<TraceEvent> Tracer::recent(std::size_t max_events) const {
  std::vector<TraceEvent> events;
  if (max_events == 0) return events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      const std::size_t n = buffer->size.load(std::memory_order_acquire);
      // Only the newest max_events per buffer can survive the global cut.
      const std::size_t from = n > max_events ? n - max_events : 0;
      for (std::size_t i = from; i < n; ++i)
        events.push_back(buffer->events[i]);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  if (events.size() > max_events)
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(max_events));
  return events;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) {
    buffer->size.store(0, std::memory_order_release);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::string out;
  out += "{\"traceEvents\":[";
  bool first = true;
  const auto append = [&](const TraceEvent& e) {
    if (!first) out += ',';
    first = false;
    append_chrome_event(out, e);
  };
  std::uint64_t total_dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      const std::size_t n = buffer->size.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i)
        append(buffer->events[i]);
      total_dropped += buffer->dropped.load(std::memory_order_relaxed);
    }
  }
  if (total_dropped > 0) {
    // Surface overflow in the trace itself so a truncated recording is
    // never mistaken for a complete one.
    TraceEvent note;
    note.name = "mev.obs.dropped_events";
    note.phase = 'i';
    note.args[0] = TraceArg{"count", static_cast<double>(total_dropped)};
    note.num_args = 1;
    append(note);
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  os << out;
}

std::string Tracer::chrome_trace() const {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

}  // namespace mev::obs
