// W3C traceparent parsing: the malformed-header matrix (every bad input
// yields an invalid context, never an error), the exact-length rules per
// version, round-trip formatting, and TraceIdGenerator determinism.
#include "obs/trace_context.hpp"

#include <set>
#include <string>

#include <gtest/gtest.h>

namespace {

using mev::obs::format_hex64;
using mev::obs::format_trace_id;
using mev::obs::format_traceparent;
using mev::obs::parse_hex64;
using mev::obs::parse_traceparent;
using mev::obs::TraceContext;
using mev::obs::TraceIdGenerator;

constexpr const char* kGood =
    "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";

TEST(TraceParent, ParsesTheSpecExample) {
  const TraceContext ctx = parse_traceparent(kGood);
  ASSERT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.trace_hi, 0x0af7651916cd43ddULL);
  EXPECT_EQ(ctx.trace_id, 0x8448eb211c80319cULL);
  EXPECT_EQ(ctx.span_id, 0xb7ad6b7169203331ULL);
}

TEST(TraceParent, UppercaseHexIsAccepted) {
  const TraceContext ctx = parse_traceparent(
      "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01");
  ASSERT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.trace_id, 0x8448eb211c80319cULL);
}

// The malformed matrix: every row must yield an INVALID context. The
// serving contract layered on top (test_frontend_tracing.cpp) is that
// such requests are still served with a fresh trace — parsing itself must
// simply refuse to correlate.
TEST(TraceParent, MalformedHeadersYieldInvalidContexts) {
  const char* kBad[] = {
      // Version "ff" is explicitly forbidden by the spec.
      "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      // Wrong length: truncated trace id.
      "00-0af7651916cd43dd8448eb211c8031-b7ad6b7169203331-01",
      // Wrong length: truncated parent id.
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033-01",
      // Version 00 must be EXACTLY 55 chars: trailing junk is malformed.
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01x",
      // Non-hex digit in the trace id.
      "00-0af7651916cd43dg8448eb211c80319c-b7ad6b7169203331-01",
      // Non-hex digit in the parent id.
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333z-01",
      // Non-hex version.
      "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      // All-zero trace id is forbidden.
      "00-00000000000000000000000000000000-b7ad6b7169203331-01",
      // All-zero parent id is forbidden.
      "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
      // Zero LOW half: the internal 64-bit identity would be zero, which
      // this implementation treats as unusable.
      "00-0af7651916cd43dd0000000000000000-b7ad6b7169203331-01",
      // Dashes in the wrong places.
      "00x0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319cxb7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331x01",
      // Empty / absurdly short / garbage.
      "",
      "00",
      "hello world",
      "00-abc-def-01",
  };
  for (const char* header : kBad) {
    const TraceContext ctx = parse_traceparent(header);
    EXPECT_FALSE(ctx.valid()) << "accepted malformed: \"" << header << '"';
    EXPECT_EQ(ctx.trace_id, 0u) << header;
  }
}

TEST(TraceParent, FutureVersionsAllowLongerHeadersWithADash) {
  // Per spec, a parser for version 00 must accept a HIGHER version whose
  // first 55 chars parse, provided char 55 is a dash.
  const TraceContext ok = parse_traceparent(
      "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extrafield");
  EXPECT_TRUE(ok.valid());
  // ...but longer with NO dash at 55 is malformed.
  const TraceContext bad = parse_traceparent(
      "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01extrafield");
  EXPECT_FALSE(bad.valid());
}

TEST(TraceParent, FormatRoundTripsThroughParse) {
  const TraceContext original = parse_traceparent(kGood);
  const std::string header = format_traceparent(original);
  EXPECT_EQ(header, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01");
  const TraceContext reparsed = parse_traceparent(header);
  EXPECT_EQ(reparsed.trace_id, original.trace_id);
  EXPECT_EQ(reparsed.trace_hi, original.trace_hi);
  EXPECT_EQ(reparsed.span_id, original.span_id);
}

TEST(TraceParent, FormatTraceIdIsTheFull32HexId) {
  const TraceContext ctx = parse_traceparent(kGood);
  EXPECT_EQ(format_trace_id(ctx), "0af7651916cd43dd8448eb211c80319c");
  // A locally-minted context (no W3C high half) zero-pads the high 64.
  TraceContext local;
  local.trace_id = 0xabcULL;
  EXPECT_EQ(format_trace_id(local), "00000000000000000000000000000abc");
}

TEST(Hex64, FormatAndParseRoundTrip) {
  EXPECT_EQ(format_hex64(0xdeadbeef01020304ULL), "deadbeef01020304");
  std::uint64_t value = 0;
  ASSERT_TRUE(parse_hex64("deadbeef01020304", &value));
  EXPECT_EQ(value, 0xdeadbeef01020304ULL);
  ASSERT_TRUE(parse_hex64("DEADBEEF01020304", &value));
  EXPECT_EQ(value, 0xdeadbeef01020304ULL);
  EXPECT_FALSE(parse_hex64("deadbeef0102030", &value));    // 15 chars
  EXPECT_FALSE(parse_hex64("deadbeef010203045", &value));  // 17 chars
  EXPECT_FALSE(parse_hex64("deadbeef0102030g", &value));   // non-hex
  EXPECT_FALSE(parse_hex64("", &value));
}

TEST(TraceIdGenerator, SameSeedSameSequence) {
  TraceIdGenerator a(1234), b(1234);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next(), b.next()) << i;
}

TEST(TraceIdGenerator, DifferentSeedsDiverge) {
  TraceIdGenerator a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) differing += a.next() != b.next();
  EXPECT_GT(differing, 12);
}

TEST(TraceIdGenerator, NeverReturnsZeroAndRarelyCollides) {
  TraceIdGenerator gen(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t id = gen.next();
    EXPECT_NE(id, 0u);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 4096u);
}

}  // namespace
