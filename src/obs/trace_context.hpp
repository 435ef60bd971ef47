// TraceContext: the copyable request-correlation handle carried through
// every serving layer — the HTTP frontend, the submission shards, the
// micro-batcher, the scoring worker, and the completion callback all see
// the same 64-bit trace id, so one request's spans can be reassembled
// into a tree no matter which threads executed them.
//
//   trace_id   identity of the whole request (nonzero = correlated)
//   trace_hi   high 64 bits of an incoming W3C 128-bit trace id, carried
//              only so responses echo the caller's id byte-for-byte
//   span_id    the current span within the trace; a child span records it
//              as parent_span_id and substitutes its own
//
// The W3C `traceparent` header (https://www.w3.org/TR/trace-context/)
//
//   00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01
//   ^^ version  ^^^^ 32-hex trace-id    ^^^^ 16-hex parent ^^ flags
//
// is parsed permissively-but-exactly: any malformation (bad version,
// wrong length, non-hex, all-zero ids) yields an *invalid* context — the
// request is still served, it just starts a fresh trace. A malformed
// header is never an error: correlation is a diagnostic, not a contract.
//
// Pure data + string processing with no tracing machinery: serve::Request
// embeds a TraceContext and the net layer stamps correlation headers
// even when the Tracer is disabled at runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace mev::obs {

struct TraceContext {
  std::uint64_t trace_id = 0;  // low 64 bits; 0 = uncorrelated
  std::uint64_t trace_hi = 0;  // high 64 bits of a W3C id (echo only)
  std::uint64_t span_id = 0;   // current span / parent for children

  bool valid() const noexcept { return trace_id != 0; }
};

/// Parses a W3C `traceparent` header value. Returns an invalid context
/// (trace_id == 0) on ANY malformation: wrong length, missing dashes,
/// non-hex digits, version "ff", an all-zero trace-id or parent-id. The
/// low 64 bits of the 128-bit trace id become the internal identity; a
/// header whose low half is all zero is treated as malformed too (the
/// identity must be nonzero).
TraceContext parse_traceparent(std::string_view header) noexcept;

/// "00-<32 hex trace>-<16 hex span>-01" for outgoing propagation.
std::string format_traceparent(const TraceContext& ctx);

/// The full 32-hex trace id (trace_hi then trace_id) — what responses
/// stamp into X-Trace-Id so callers can grep their own id back.
std::string format_trace_id(const TraceContext& ctx);

/// 16-hex form of one 64-bit id.
std::string format_hex64(std::uint64_t id);

/// Parses exactly 16 lowercase/uppercase hex chars; false on anything
/// else (the /requestz?trace_id= filter).
bool parse_hex64(std::string_view s, std::uint64_t* out) noexcept;

/// Deterministically seeded 64-bit id allocator: a splitmix64 stream over
/// an atomic counter. The same seed yields the same id sequence, so a
/// tracer seeded from a runtime::FakeClock produces byte-identical
/// traces across runs; seeded from the system clock, ids are distinct
/// across processes. next() never returns 0.
class TraceIdGenerator {
 public:
  explicit TraceIdGenerator(std::uint64_t seed = 0) noexcept
      : state_(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL) {}

  std::uint64_t next() noexcept {
    std::uint64_t x =
        state_.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x != 0 ? x : 1;
  }

 private:
  std::atomic<std::uint64_t> state_;
};

}  // namespace mev::obs
