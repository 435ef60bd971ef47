// Tracer: RAII span scopes recording begin/end/instant events into
// per-thread, lock-free ring buffers, exported as Chrome trace-event JSON
// (loadable in chrome://tracing and https://ui.perfetto.dev).
//
//   obs::Tracer tracer;                       // or inject a FakeClock
//   {
//     obs::Span s = tracer.span("mev.core.blackbox.round");
//     s.arg("round", 3);
//   }                                         // emitted on scope exit
//   tracer.write_chrome_trace(file);
//
// Design:
//  * One fixed-capacity ring per emitting thread: the owning thread is the
//    only writer (an atomic size published with release ordering), so span
//    emission never takes a lock and never allocates after the buffer
//    exists. On overflow new events are DROPPED and counted — a trace is
//    a bounded-cost diagnostic, never a backpressure source.
//  * All timestamps come from an injectable runtime::Clock; under
//    runtime::FakeClock two identical runs produce byte-identical traces.
//  * Span/event names must be string literals (or otherwise outlive the
//    tracer): events store the pointer, not a copy.
//  * A disabled tracer (set_enabled(false)) skips the clock reads and the
//    buffer write entirely; the process-wide obs::default_tracer() starts
//    disabled so un-instrumented runs pay one atomic load per span site.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_context.hpp"
#include "runtime/clock.hpp"

namespace mev::obs {

struct TracerConfig {
  /// Max events buffered per emitting thread; overflow drops and counts.
  std::size_t ring_capacity = 1 << 16;
  /// Timing source; nullptr = runtime::SystemClock. Must outlive the
  /// tracer.
  runtime::Clock* clock = nullptr;
  /// Record events from construction (set_enabled toggles later).
  bool enabled = true;
};

/// One numeric span/instant annotation ("loss" = 0.031, ...).
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

/// One recorded event: a complete span ('X', with duration) or an instant
/// ('i'). Mirrors the Chrome trace-event JSON fields.
struct TraceEvent {
  const char* name = nullptr;
  char phase = 'X';
  std::uint32_t tid = 0;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  // Request correlation: all zero for anonymous spans (span(name) with no
  // context); nonzero ids link the event into a cross-thread span tree.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::array<TraceArg, 4> args{};
  std::uint8_t num_args = 0;
};

class Tracer;

/// RAII scope: records its start time on construction and emits one
/// complete event (with duration and up to 4 numeric args) when destroyed
/// or finish()ed. A Span from a null/disabled tracer is inert.
class Span {
 public:
  Span() = default;
  ~Span() { finish(); }

  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      finish();
      tracer_ = std::exchange(other.tracer_, nullptr);
      name_ = other.name_;
      start_us_ = other.start_us_;
      ctx_ = other.ctx_;
      parent_span_ = other.parent_span_;
      args_ = other.args_;
      num_args_ = other.num_args_;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric annotation; silently dropped after the 4th.
  void arg(const char* key, double value) noexcept {
    if (tracer_ == nullptr || num_args_ >= args_.size()) return;
    args_[num_args_++] = TraceArg{key, value};
  }

  /// Emits the event now instead of at scope exit. Idempotent.
  void finish() noexcept;

  /// This span's identity within its trace — pass to Tracer::span() or
  /// make_context() to open children of this span. Zero-ids (invalid) for
  /// anonymous or inert spans.
  TraceContext context() const noexcept { return ctx_; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, const char* name, std::uint64_t start_us) noexcept
      : tracer_(tracer), name_(name), start_us_(start_us) {}
  Span(Tracer* tracer, const char* name, std::uint64_t start_us,
       TraceContext ctx, std::uint64_t parent_span) noexcept
      : tracer_(tracer),
        name_(name),
        start_us_(start_us),
        ctx_(ctx),
        parent_span_(parent_span) {}

  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
  TraceContext ctx_{};
  std::uint64_t parent_span_ = 0;
  std::array<TraceArg, 4> args_{};
  std::uint8_t num_args_ = 0;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});
  ~Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens an anonymous span (no trace ids — the cheap instrumentation
  /// path); emitted when the returned object dies. `name` must outlive
  /// the tracer (use string literals).
  Span span(const char* name) noexcept {
    if (!enabled_.load(std::memory_order_relaxed)) return Span();
    return Span(this, name, clock_->now_us());
  }

  /// Opens a correlated span as a child of `parent` (a fresh trace when
  /// `parent` is invalid). The returned Span's context() identifies it to
  /// further children.
  Span span(const char* name, TraceContext parent) noexcept {
    if (!enabled_.load(std::memory_order_relaxed)) return Span();
    return Span(this, name, clock_->now_us(), make_context(parent),
                parent.span_id);
  }

  /// Records a zero-duration instant event.
  void instant(const char* name) noexcept;

  /// Allocates a new span identity: `parent` valid → same trace, fresh
  /// span id (trace_hi carried through); invalid → a fresh trace rooted
  /// at the new span. Works whether or not the tracer is enabled —
  /// correlation ids must flow even when recording is off — and is
  /// deterministic under a FakeClock-seeded tracer.
  TraceContext make_context(TraceContext parent = {}) noexcept {
    TraceContext ctx;
    if (parent.valid()) {
      ctx.trace_id = parent.trace_id;
      ctx.trace_hi = parent.trace_hi;
    } else {
      ctx.trace_id = ids_.next();
    }
    ctx.span_id = ids_.next();
    return ctx;
  }

  /// Emits one already-timed complete span as a child of `parent` — the
  /// retroactive form used when a stage's boundaries were captured as
  /// plain timestamps on another thread (queue wait, batch scan) rather
  /// than with a live Span object.
  void complete_span(const char* name, TraceContext parent,
                     std::uint64_t start_us, std::uint64_t end_us) noexcept;

  /// Same, but with an explicit identity for the emitted span (the HTTP
  /// root span, whose id was allocated at ingress and already handed to
  /// children and response headers).
  void complete_span(const char* name, TraceContext self,
                     std::uint64_t parent_span_id, std::uint64_t start_us,
                     std::uint64_t end_us) noexcept;

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  runtime::Clock& clock() const noexcept { return *clock_; }

  /// Events currently buffered across all threads.
  std::size_t event_count() const;
  /// Events dropped on ring overflow across all threads.
  std::uint64_t dropped() const;

  /// The most recent `max_events` completed events across all threads,
  /// oldest first (merged from the per-thread buffers by timestamp). Safe
  /// to call while other threads keep emitting — the /tracez endpoint's
  /// snapshot path.
  std::vector<TraceEvent> recent(std::size_t max_events) const;

  /// Forgets all recorded events and drop counts (buffers and thread ids
  /// are kept). Only call while no other thread is emitting.
  void clear();

  /// Writes the Chrome trace-event JSON ({"traceEvents": [...]}). Events
  /// recorded up to this call are included; safe to call while other
  /// threads keep emitting (their in-flight events may be missed, never
  /// torn).
  void write_chrome_trace(std::ostream& os) const;
  std::string chrome_trace() const;

 private:
  friend class Span;

  /// Single-producer ring: only the owning thread writes events/size.
  struct ThreadBuffer {
    ThreadBuffer(std::size_t capacity, std::uint32_t tid_)
        : events(capacity), tid(tid_) {}
    std::vector<TraceEvent> events;
    std::atomic<std::size_t> size{0};
    std::atomic<std::uint64_t> dropped{0};
    std::uint32_t tid;
  };

  ThreadBuffer& local_buffer();
  void emit(TraceEvent event) noexcept;

  std::uint64_t id_;  // process-unique, keys the thread-local buffer cache
  TracerConfig config_;
  runtime::Clock* clock_;
  TraceIdGenerator ids_;  // seeded from the clock at construction
  std::atomic<bool> enabled_;

  mutable std::mutex mutex_;  // guards buffers_ (registration + export)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::uint32_t next_tid_ = 1;
};

/// Appends one event as a Chrome trace-event object ({"name":...,"ph":...}),
/// the shape write_chrome_trace() emits for every buffered event.
void append_chrome_event(std::string& out, const TraceEvent& event);

/// Appends the fields both JSON event forms (Chrome, /tracez) end with:
/// the hex ids of a correlated event and its "args", each only when set.
void append_event_ids_and_args(std::string& out, const TraceEvent& event);

/// Null-safe helpers so call sites never branch on the tracer pointer.
inline Span span(Tracer* tracer, const char* name) noexcept {
  return tracer != nullptr ? tracer->span(name) : Span();
}
inline Span span(Tracer* tracer, const char* name,
                 TraceContext parent) noexcept {
  return tracer != nullptr ? tracer->span(name, parent) : Span();
}
inline void instant(Tracer* tracer, const char* name) noexcept {
  if (tracer != nullptr) tracer->instant(name);
}
inline TraceContext make_context(Tracer* tracer,
                                 TraceContext parent = {}) noexcept {
  return tracer != nullptr ? tracer->make_context(parent) : TraceContext{};
}

}  // namespace mev::obs
