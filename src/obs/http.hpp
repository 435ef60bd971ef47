// Minimal HTTP/1.1 request parsing for the embedded servers: a pure,
// incremental state machine with no socket or obs/ dependencies, so every
// edge (torn reads, oversized lines, pipelining, body framing) is
// unit-testable without a network. Deliberately tiny — the admin plane
// needs `GET /path HTTP/1.x` plus headers, and the scoring frontend adds
// `Content-Length`-framed bodies behind a configurable cap.
//
//   http::RequestParser parser;
//   while (...) {
//     n = recv(...);
//     consumed = parser.feed(data, n);      // consumes at most one request
//     if (parser.status() == ParseStatus::kComplete) { ...; parser.reset(); }
//     // unconsumed bytes (n - consumed) belong to the NEXT pipelined
//     // request: feed them again after reset().
//   }
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mev::obs::http {

/// A parsed request line + headers (+ body when the parser allows one).
struct Request {
  std::string method;
  std::string target;   // origin-form, e.g. "/metrics?verbose=1"
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;  // Content-Length bytes, empty unless a body was sent

  /// First header with this name (ASCII case-insensitive); nullptr when
  /// absent.
  const std::string* header(std::string_view name) const noexcept;
  /// `target` without the query string.
  std::string_view path() const noexcept;
};

enum class ParseStatus {
  kNeedMore,   // fed bytes ended mid-request; feed more
  kComplete,   // request() is valid; unconsumed bytes are the next request
  kError,      // malformed or over limits; error_status() says which
};

struct ParserLimits {
  /// Longest accepted request line (method + target + version + CRLF).
  std::size_t max_request_line = 4096;
  /// Longest accepted single header line.
  std::size_t max_header_line = 4096;
  /// Accepted header count; the rest is an error, not a truncation.
  std::size_t max_headers = 64;
  /// Total bytes across all header lines (defense against many medium
  /// lines slipping under the per-line cap); exceeding it is a 431.
  std::size_t max_header_bytes = 16384;
  /// Largest accepted Content-Length. 0 (the default, and the admin
  /// plane's setting) rejects every request that announces a body with
  /// 413 — a surprise body would desynchronize pipelining.
  std::size_t max_body_bytes = 0;
};

class RequestParser {
 public:
  explicit RequestParser(ParserLimits limits = {}) : limits_(limits) {}

  /// Consumes bytes from `data` until one request completes, an error is
  /// found, or the input runs out; returns how many bytes were consumed.
  /// Bytes past a completed request are left for the caller (pipelining).
  std::size_t feed(const char* data, std::size_t size);
  std::size_t feed(std::string_view data) {
    return feed(data.data(), data.size());
  }

  ParseStatus status() const noexcept { return status_; }
  /// The HTTP status to answer an error with: 431 for over-limit lines,
  /// header count or total header bytes; 411 for a POST/PUT that frames
  /// no body; 413 for a body over max_body_bytes; 400 otherwise. 0 while
  /// not in error.
  int error_status() const noexcept { return error_status_; }
  /// Valid when status() == kComplete.
  const Request& request() const noexcept { return request_; }
  /// Moves the parsed request out (valid once kComplete); the caller
  /// should reset() before feeding again.
  Request take_request() noexcept { return std::move(request_); }

  /// Ready for the next request (after kComplete or kError).
  void reset();

 private:
  enum class State { kRequestLine, kHeaders, kBody, kComplete, kError };

  void fail(int status) noexcept;
  bool parse_request_line(std::string_view line);
  bool parse_header_line(std::string_view line);
  void finish_headers();

  ParserLimits limits_;
  State state_ = State::kRequestLine;
  ParseStatus status_ = ParseStatus::kNeedMore;
  int error_status_ = 0;
  std::string line_;  // the partially received current line
  std::size_t header_bytes_ = 0;
  std::size_t body_remaining_ = 0;
  Request request_;
};

/// Serializes a complete HTTP/1.1 response with Content-Length and
/// Connection: close (the admin server is connection-per-request).
std::string format_response(int status, std::string_view content_type,
                            std::string_view body);

/// An extra response header as name/value; the value's storage must
/// outlive the format_response call.
using HeaderView = std::pair<std::string_view, std::string_view>;

/// Serializes a complete HTTP/1.1 response, advertising keep-alive or
/// close explicitly plus any extra headers (e.g. Retry-After).
std::string format_response(int status, std::string_view content_type,
                            std::string_view body, bool keep_alive,
                            const std::vector<HeaderView>& extra_headers);

/// Reason phrase for the statuses the embedded servers use.
const char* status_text(int status) noexcept;

/// Decodes the query string of an origin-form target ("/tracez?a=1&b=x%20y")
/// into name/value pairs in wire order. Percent-escapes and '+' (as space)
/// are decoded in both names and values; a parameter without '=' gets an
/// empty value; empty segments ("a=1&&b=2") are skipped. Malformed
/// percent-escapes are kept literally rather than rejected — query parsing
/// never fails, it just yields what was sent.
std::vector<std::pair<std::string, std::string>> parse_query(
    std::string_view target);

/// First value for `name` in parse_query() output; nullptr when absent.
const std::string* query_param(
    const std::vector<std::pair<std::string, std::string>>& params,
    std::string_view name) noexcept;

}  // namespace mev::obs::http
