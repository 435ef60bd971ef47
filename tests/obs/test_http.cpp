// RequestParser edge cases: torn reads at every byte boundary, pipelined
// requests, limit enforcement (431 for lines/count/total header bytes,
// 413 over-cap bodies, 411 unframed POSTs), and malformed input (400).
#include <string>

#include <gtest/gtest.h>

#include "obs/http.hpp"

namespace {

using mev::obs::http::ParserLimits;
using mev::obs::http::ParseStatus;
using mev::obs::http::Request;
using mev::obs::http::RequestParser;

constexpr const char* kSimpleGet =
    "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";

TEST(RequestParser, ParsesASimpleGet) {
  RequestParser parser;
  const std::string input = kSimpleGet;
  const std::size_t consumed = parser.feed(input);
  ASSERT_EQ(parser.status(), ParseStatus::kComplete);
  EXPECT_EQ(consumed, input.size());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/metrics");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  ASSERT_NE(parser.request().header("host"), nullptr);
  EXPECT_EQ(*parser.request().header("HOST"), "localhost");
}

TEST(RequestParser, TornAtEveryByteBoundaryStillParses) {
  const std::string input = kSimpleGet;
  for (std::size_t split = 1; split < input.size(); ++split) {
    RequestParser parser;
    std::size_t consumed = parser.feed(input.data(), split);
    EXPECT_EQ(parser.status(), ParseStatus::kNeedMore)
        << "split at " << split;
    consumed += parser.feed(input.data() + consumed, input.size() - consumed);
    ASSERT_EQ(parser.status(), ParseStatus::kComplete)
        << "split at " << split;
    EXPECT_EQ(consumed, input.size()) << "split at " << split;
    EXPECT_EQ(parser.request().target, "/metrics") << "split at " << split;
  }
}

TEST(RequestParser, OneByteAtATimeStillParses) {
  const std::string input = kSimpleGet;
  RequestParser parser;
  std::size_t consumed = 0;
  for (char c : input)
    if (parser.status() == ParseStatus::kNeedMore)
      consumed += parser.feed(&c, 1);
  ASSERT_EQ(parser.status(), ParseStatus::kComplete);
  EXPECT_EQ(consumed, input.size());
  EXPECT_EQ(parser.request().path(), "/metrics");
}

TEST(RequestParser, PipelinedRequestsAreConsumedOneAtATime) {
  const std::string input =
      "GET /healthz HTTP/1.1\r\n\r\nGET /readyz HTTP/1.1\r\n\r\n";
  RequestParser parser;
  const std::size_t first = parser.feed(input);
  ASSERT_EQ(parser.status(), ParseStatus::kComplete);
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_LT(first, input.size());  // second request left unconsumed

  parser.reset();
  const std::size_t second =
      parser.feed(input.data() + first, input.size() - first);
  ASSERT_EQ(parser.status(), ParseStatus::kComplete);
  EXPECT_EQ(parser.request().target, "/readyz");
  EXPECT_EQ(first + second, input.size());
}

TEST(RequestParser, OversizedRequestLineFailsWith431) {
  ParserLimits limits;
  limits.max_request_line = 64;
  RequestParser parser(limits);
  const std::string input =
      "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n";
  parser.feed(input);
  ASSERT_EQ(parser.status(), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParser, OversizedRequestLineWithoutNewlineFailsEagerly) {
  // The limit applies to the accumulated partial line too — a scraper
  // streaming an endless first line is rejected without buffering it all.
  ParserLimits limits;
  limits.max_request_line = 64;
  RequestParser parser(limits);
  const std::string input(100, 'a');  // no newline yet
  parser.feed(input);
  ASSERT_EQ(parser.status(), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParser, TooManyHeadersFailWith431) {
  ParserLimits limits;
  limits.max_headers = 4;
  RequestParser parser(limits);
  std::string input = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 10; ++i)
    input += "X-Header-" + std::to_string(i) + ": v\r\n";
  input += "\r\n";
  parser.feed(input);
  ASSERT_EQ(parser.status(), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParser, MalformedRequestLineFailsWith400) {
  for (const char* bad : {"NOSPACES\r\n\r\n", "GET /only-two\r\n\r\n",
                          "GET / NOTHTTP/1.1\r\n\r\n"}) {
    RequestParser parser;
    parser.feed(std::string_view(bad));
    ASSERT_EQ(parser.status(), ParseStatus::kError) << bad;
    EXPECT_EQ(parser.error_status(), 400) << bad;
  }
}

TEST(RequestParser, HeaderWithoutColonFailsWith400) {
  RequestParser parser;
  parser.feed(std::string_view("GET / HTTP/1.1\r\nbogusheader\r\n\r\n"));
  ASSERT_EQ(parser.status(), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(RequestParser, RequestsWithBodiesAreRejected) {
  // Default limits (max_body_bytes == 0): any announced body is over the
  // cap — 413, the admin plane's posture.
  RequestParser parser;
  parser.feed(std::string_view(
      "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"));
  ASSERT_EQ(parser.status(), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 413);

  // Chunked framing is out of scope in every configuration: 400.
  parser.reset();
  parser.feed(std::string_view(
      "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
  ASSERT_EQ(parser.status(), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 400);

  // An explicit zero-length body is fine.
  parser.reset();
  parser.feed(std::string_view("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
  EXPECT_EQ(parser.status(), ParseStatus::kComplete);
}

TEST(RequestParser, ParsesABodyWithinTheCap) {
  ParserLimits limits;
  limits.max_body_bytes = 64;
  RequestParser parser(limits);
  const std::string input =
      "POST /v1/score HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
  const std::size_t consumed = parser.feed(input);
  ASSERT_EQ(parser.status(), ParseStatus::kComplete);
  EXPECT_EQ(consumed, input.size());
  EXPECT_EQ(parser.request().body, "hello world");
}

TEST(RequestParser, BodyTornAtEveryByteBoundaryStillParses) {
  ParserLimits limits;
  limits.max_body_bytes = 64;
  const std::string input =
      "POST /v1/score HTTP/1.1\r\nContent-Length: 12\r\n\r\nabcdefghijkl";
  for (std::size_t split = 1; split < input.size(); ++split) {
    RequestParser parser(limits);
    std::size_t consumed = parser.feed(input.data(), split);
    EXPECT_EQ(parser.status(), ParseStatus::kNeedMore)
        << "split at " << split;
    consumed += parser.feed(input.data() + consumed, input.size() - consumed);
    ASSERT_EQ(parser.status(), ParseStatus::kComplete)
        << "split at " << split;
    EXPECT_EQ(consumed, input.size()) << "split at " << split;
    EXPECT_EQ(parser.request().body, "abcdefghijkl")
        << "split at " << split;
  }
}

TEST(RequestParser, BodyLeavesPipelinedBytesUnconsumed) {
  ParserLimits limits;
  limits.max_body_bytes = 64;
  RequestParser parser(limits);
  const std::string input =
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /b HTTP/1.1\r\n\r\n";
  const std::size_t first = parser.feed(input);
  ASSERT_EQ(parser.status(), ParseStatus::kComplete);
  EXPECT_EQ(parser.request().body, "xyz");
  EXPECT_LT(first, input.size());
  parser.reset();
  parser.feed(input.data() + first, input.size() - first);
  ASSERT_EQ(parser.status(), ParseStatus::kComplete);
  EXPECT_EQ(parser.request().target, "/b");
}

TEST(RequestParser, BodyOverTheCapFailsWith413BeforeBuffering) {
  ParserLimits limits;
  limits.max_body_bytes = 16;
  RequestParser parser(limits);
  // The rejection comes from the declared length at end-of-headers; the
  // parser never waits for (or stores) the oversized payload.
  parser.feed(std::string_view(
      "POST /v1/score HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n"));
  ASSERT_EQ(parser.status(), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(RequestParser, PostWithoutContentLengthFailsWith411) {
  ParserLimits limits;
  limits.max_body_bytes = 64;
  for (const char* method : {"POST", "PUT"}) {
    RequestParser parser(limits);
    parser.feed(std::string(method) + " /v1/score HTTP/1.1\r\n\r\n");
    ASSERT_EQ(parser.status(), ParseStatus::kError) << method;
    EXPECT_EQ(parser.error_status(), 411) << method;
  }
  // GET without a length stays a complete bodyless request.
  RequestParser parser(limits);
  parser.feed(std::string_view("GET /healthz HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(parser.status(), ParseStatus::kComplete);
}

TEST(RequestParser, GarbageContentLengthFailsWith400) {
  ParserLimits limits;
  limits.max_body_bytes = 64;
  for (const char* bad : {"abc", "-1", "1 2", "0x10", ""}) {
    RequestParser parser(limits);
    parser.feed("POST / HTTP/1.1\r\nContent-Length: " + std::string(bad) +
                "\r\n\r\n");
    ASSERT_EQ(parser.status(), ParseStatus::kError) << "'" << bad << "'";
    EXPECT_EQ(parser.error_status(), 400) << "'" << bad << "'";
  }
}

TEST(RequestParser, TotalHeaderBytesOverTheCapFailWith431) {
  ParserLimits limits;
  limits.max_header_line = 4096;
  limits.max_headers = 64;
  limits.max_header_bytes = 256;
  // Each line is far under the per-line cap and the count cap; only the
  // total-bytes cap can catch this shape.
  std::string input = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 10; ++i)
    input += "X-Pad-" + std::to_string(i) + ": " + std::string(40, 'v') +
             "\r\n";
  input += "\r\n";
  RequestParser parser(limits);
  parser.feed(input);
  ASSERT_EQ(parser.status(), ParseStatus::kError);
  EXPECT_EQ(parser.error_status(), 431);

  // And eagerly, even when the oversized header block never completes a
  // line (no newline at all past the cap).
  RequestParser eager(limits);
  eager.feed("GET / HTTP/1.1\r\nX-Pad: " + std::string(300, 'v'));
  ASSERT_EQ(eager.status(), ParseStatus::kError);
  EXPECT_EQ(eager.error_status(), 431);
}

TEST(RequestParser, BareLfAndLeadingBlankLinesAreTolerated) {
  RequestParser parser;
  parser.feed(std::string_view("\r\n\nGET /varz HTTP/1.1\nHost: x\n\n"));
  ASSERT_EQ(parser.status(), ParseStatus::kComplete);
  EXPECT_EQ(parser.request().target, "/varz");
  ASSERT_NE(parser.request().header("Host"), nullptr);
  EXPECT_EQ(*parser.request().header("Host"), "x");
}

TEST(RequestParser, PathStripsTheQueryString) {
  RequestParser parser;
  parser.feed(std::string_view("GET /metrics?verbose=1 HTTP/1.1\r\n\r\n"));
  ASSERT_EQ(parser.status(), ParseStatus::kComplete);
  EXPECT_EQ(parser.request().target, "/metrics?verbose=1");
  EXPECT_EQ(parser.request().path(), "/metrics");
}

TEST(RequestParser, ResetClearsErrorAndRequestState) {
  RequestParser parser;
  parser.feed(std::string_view("garbage\r\n"));
  ASSERT_EQ(parser.status(), ParseStatus::kError);
  parser.reset();
  EXPECT_EQ(parser.status(), ParseStatus::kNeedMore);
  EXPECT_EQ(parser.error_status(), 0);
  parser.feed(std::string_view(kSimpleGet));
  EXPECT_EQ(parser.status(), ParseStatus::kComplete);
}

TEST(FormatResponse, ProducesAFramedCloseDelimitedResponse) {
  const std::string response =
      mev::obs::http::format_response(200, "text/plain", "ok\n");
  EXPECT_EQ(response,
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Length: 3\r\n"
            "Connection: close\r\n\r\n"
            "ok\n");
  EXPECT_NE(mev::obs::http::format_response(503, "text/plain", "draining\n")
                .find("503 Service Unavailable"),
            std::string::npos);
}

TEST(FormatResponse, KeepAliveVariantWithExtraHeaders) {
  const std::string response = mev::obs::http::format_response(
      429, "application/json", "{}\n", /*keep_alive=*/true,
      {{"Retry-After", "2"}});
  EXPECT_NE(response.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(response.find("Retry-After: 2\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: keep-alive\r\n\r\n{}\n"),
            std::string::npos);
  EXPECT_EQ(response.find("Connection: close"), std::string::npos);
}

TEST(FormatResponse, StatusTextCoversTheFrontendStatuses) {
  using mev::obs::http::status_text;
  EXPECT_STREQ(status_text(401), "Unauthorized");
  EXPECT_STREQ(status_text(411), "Length Required");
  EXPECT_STREQ(status_text(413), "Payload Too Large");
  EXPECT_STREQ(status_text(415), "Unsupported Media Type");
  EXPECT_STREQ(status_text(429), "Too Many Requests");
  EXPECT_STREQ(status_text(504), "Gateway Timeout");
}

TEST(ParseQuery, SplitsPairsAndIgnoresThePath) {
  using mev::obs::http::parse_query;
  const auto params = parse_query("/tracez?name_prefix=mev.net&limit=10");
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].first, "name_prefix");
  EXPECT_EQ(params[0].second, "mev.net");
  EXPECT_EQ(params[1].first, "limit");
  EXPECT_EQ(params[1].second, "10");
}

TEST(ParseQuery, NoQueryStringYieldsNoParams) {
  using mev::obs::http::parse_query;
  EXPECT_TRUE(parse_query("/tracez").empty());
  EXPECT_TRUE(parse_query("/tracez?").empty());
  EXPECT_TRUE(parse_query("").empty());
}

TEST(ParseQuery, ValuelessKeysAndEmptySegmentsAreTolerated) {
  using mev::obs::http::parse_query;
  const auto params = parse_query("/x?flag&&a=1&=orphan");
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0].first, "flag");
  EXPECT_EQ(params[0].second, "");
  EXPECT_EQ(params[1].first, "a");
  EXPECT_EQ(params[1].second, "1");
  EXPECT_EQ(params[2].first, "");
  EXPECT_EQ(params[2].second, "orphan");
}

TEST(ParseQuery, PercentEscapesAndPlusDecode) {
  using mev::obs::http::parse_query;
  const auto params = parse_query("/x?name=mev%2Enet+scan&pct=100%25");
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].second, "mev.net scan");
  EXPECT_EQ(params[1].second, "100%");
}

TEST(ParseQuery, MalformedEscapesAreKeptLiterally) {
  // Query parsing never fails: a bad escape is surfaced, not rejected.
  using mev::obs::http::parse_query;
  const auto params = parse_query("/x?a=%zz&b=%2&c=%");
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0].second, "%zz");
  EXPECT_EQ(params[1].second, "%2");
  EXPECT_EQ(params[2].second, "%");
}

TEST(ParseQuery, QueryParamReturnsFirstMatchOrNull) {
  using mev::obs::http::parse_query;
  using mev::obs::http::query_param;
  const auto params = parse_query("/x?a=1&b=2&a=3");
  const std::string* a = query_param(params, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, "1");
  const std::string* b = query_param(params, "b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(*b, "2");
  EXPECT_EQ(query_param(params, "missing"), nullptr);
}

}  // namespace
