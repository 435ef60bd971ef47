// Tracer behavior: ring overflow accounting, Chrome trace-event JSON
// schema, FakeClock determinism, concurrent emission (exercised under
// TSan in CI), and the null-safe helpers. The behavioral tests only exist
// in full-obs builds; the stub build still compiles this file and checks
// that the no-op surface stays callable.
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "runtime/clock.hpp"

namespace {

using mev::obs::Span;
using mev::obs::Tracer;
using mev::obs::TracerConfig;
using mev::runtime::FakeClock;

TEST(Tracer, RingOverflowDropsAndCounts) {
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 4, .clock = &clock});
  for (int i = 0; i < 10; ++i) tracer.instant("mev.test.tick");
  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Overflow is surfaced inside the trace itself.
  EXPECT_NE(tracer.chrome_trace().find("mev.obs.dropped_events"),
            std::string::npos);
}

TEST(Tracer, ChromeTraceJsonSchemaIsPinned) {
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 16, .clock = &clock});
  {
    Span s = tracer.span("mev.test.op");
    s.arg("x", 1.0);
    clock.advance(2);  // 2 ms -> dur 2000 us
  }
  EXPECT_EQ(tracer.chrome_trace(),
            "{\"traceEvents\":["
            "{\"name\":\"mev.test.op\",\"cat\":\"mev\",\"ph\":\"X\","
            "\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":2000,\"args\":{\"x\":1}}"
            "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(Tracer, InstantEventsUseThePhaseAndScopeFields) {
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 16, .clock = &clock});
  tracer.instant("mev.test.marker");
  const std::string json = tracer.chrome_trace();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

TEST(Tracer, FakeClockMakesTracesDeterministic) {
  const auto run = [] {
    FakeClock clock(100);
    Tracer tracer(TracerConfig{.ring_capacity = 64, .clock = &clock});
    for (int round = 0; round < 3; ++round) {
      Span s = tracer.span("mev.test.round");
      s.arg("round", static_cast<double>(round));
      clock.advance(5);
      tracer.instant("mev.test.mid");
      clock.advance(7);
    }
    return tracer.chrome_trace();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  FakeClock clock;
  Tracer tracer(
      TracerConfig{.ring_capacity = 16, .clock = &clock, .enabled = false});
  { Span s = tracer.span("mev.test.op"); }
  tracer.instant("mev.test.marker");
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.set_enabled(true);
  { Span s = tracer.span("mev.test.op"); }
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, MovedFromSpanDoesNotDoubleEmit) {
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 16, .clock = &clock});
  {
    Span a = tracer.span("mev.test.op");
    Span b = std::move(a);
    a.finish();  // inert: ownership moved to b
  }
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, ConcurrentSpanEmissionIsLosslessAcrossThreads) {
  // Constant FakeClock: no writer mutates time, so the only shared state
  // under test is the tracer itself (TSan-checked in CI).
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 1 << 12, .clock = &clock});
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span s = tracer.span("mev.test.worker");
        s.arg("i", static_cast<double>(i));
      }
    });
  // Concurrent export must be safe (possibly missing in-flight events).
  for (int i = 0; i < 10; ++i) (void)tracer.chrome_trace();
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.event_count(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, ClearForgetsEventsAndDrops) {
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 2, .clock = &clock});
  for (int i = 0; i < 5; ++i) tracer.instant("mev.test.tick");
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Scope, OverridesAmbientSinksAndRestoresOnExit) {
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 16, .clock = &clock});
  mev::obs::MetricsRegistry registry;
  mev::obs::Tracer* outer = mev::obs::current_tracer();
  {
    mev::obs::Scope scope(&tracer, &registry);
    EXPECT_EQ(mev::obs::current_tracer(), &tracer);
    EXPECT_EQ(mev::obs::current_registry(), &registry);
    {
      // nullptr keeps the outer override.
      mev::obs::Scope inner(nullptr, nullptr);
      EXPECT_EQ(mev::obs::current_tracer(), &tracer);
      EXPECT_EQ(mev::obs::current_registry(), &registry);
    }
    EXPECT_EQ(mev::obs::resolve(static_cast<Tracer*>(nullptr)), &tracer);
  }
  EXPECT_EQ(mev::obs::current_tracer(), outer);
}

TEST(Scope, DefaultTracerStartsDisabled) {
  EXPECT_FALSE(mev::obs::default_tracer().enabled());
}

TEST(Tracer, CorrelatedSpansFormAParentChildTree) {
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 16, .clock = &clock});
  mev::obs::TraceContext root_ctx;
  {
    Span root = tracer.span("mev.test.root", mev::obs::TraceContext{});
    root_ctx = root.context();
    ASSERT_TRUE(root_ctx.valid());
    {
      Span child = tracer.span("mev.test.child", root_ctx);
      EXPECT_EQ(child.context().trace_id, root_ctx.trace_id);
      EXPECT_NE(child.context().span_id, root_ctx.span_id);
    }
  }
  const auto events = tracer.recent(16);
  ASSERT_EQ(events.size(), 2u);  // child finished first
  const auto& child = events[0];
  const auto& root = events[1];
  EXPECT_STREQ(root.name, "mev.test.root");
  EXPECT_EQ(root.trace_id, root_ctx.trace_id);
  EXPECT_EQ(root.span_id, root_ctx.span_id);
  EXPECT_EQ(root.parent_span_id, 0u);  // fresh trace: no parent
  EXPECT_STREQ(child.name, "mev.test.child");
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
}

TEST(Tracer, AnonymousSpansCarryNoIds) {
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 4, .clock = &clock});
  { Span s = tracer.span("mev.test.op"); }
  const auto events = tracer.recent(4);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_EQ(events[0].span_id, 0u);
}

TEST(Tracer, MakeContextInheritsTheTraceAndAllocatesFreshSpanIds) {
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 4, .clock = &clock});
  const auto root = tracer.make_context();
  EXPECT_TRUE(root.valid());
  EXPECT_NE(root.span_id, 0u);
  mev::obs::TraceContext incoming;
  incoming.trace_id = 0x1234;
  incoming.trace_hi = 0x5678;
  incoming.span_id = 0x9abc;
  const auto child = tracer.make_context(incoming);
  EXPECT_EQ(child.trace_id, incoming.trace_id);
  EXPECT_EQ(child.trace_hi, incoming.trace_hi);
  EXPECT_NE(child.span_id, incoming.span_id);
  EXPECT_NE(child.span_id, 0u);
}

TEST(Tracer, MakeContextStillAllocatesWhenRecordingIsDisabled) {
  // Correlation headers must flow even when nothing is recorded.
  FakeClock clock;
  Tracer tracer(
      TracerConfig{.ring_capacity = 4, .clock = &clock, .enabled = false});
  const auto ctx = tracer.make_context();
  EXPECT_TRUE(ctx.valid());
  EXPECT_NE(ctx.span_id, 0u);
}

TEST(Tracer, CompleteSpanEmitsRetroactivelyTimedChildren) {
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 8, .clock = &clock});
  const auto root = tracer.make_context();
  // Parent form: allocates a child identity under `root`.
  tracer.complete_span("mev.serve.queue", root, 100, 350);
  // Explicit-identity form: emits `root` itself with an upstream parent.
  tracer.complete_span("mev.net.request", root, /*parent_span_id=*/0xfeed,
                       /*start_us=*/50, /*end_us=*/500);
  const auto events = tracer.recent(8);  // ts-sorted: request(50) first
  ASSERT_EQ(events.size(), 2u);
  const auto& queue = events[1];
  EXPECT_STREQ(queue.name, "mev.serve.queue");
  EXPECT_EQ(queue.trace_id, root.trace_id);
  EXPECT_EQ(queue.parent_span_id, root.span_id);
  EXPECT_NE(queue.span_id, root.span_id);
  EXPECT_EQ(queue.ts_us, 100u);
  EXPECT_EQ(queue.dur_us, 250u);
  const auto& request = events[0];
  EXPECT_STREQ(request.name, "mev.net.request");
  EXPECT_EQ(request.span_id, root.span_id);
  EXPECT_EQ(request.parent_span_id, 0xfeedu);
  EXPECT_EQ(request.dur_us, 450u);
}

TEST(Tracer, ChromeTraceExportsIdsAsHexStrings) {
  // 64-bit ids do not survive JSON number (double) round-trips, so the
  // export writes them as hex strings; Chrome ignores unknown keys.
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 4, .clock = &clock});
  mev::obs::TraceContext ctx;
  ctx.trace_id = 0xabcdef12345678ULL;
  ctx.span_id = 0x11;
  tracer.complete_span("mev.test.op", ctx, /*parent_span_id=*/0x22, 0, 10);
  const std::string json = tracer.chrome_trace();
  EXPECT_NE(json.find("\"trace_id\":\"00abcdef12345678\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"span_id\":\"0000000000000011\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\":\"0000000000000022\""),
            std::string::npos);
}

TEST(Tracer, CorrelatedTracesAreByteIdenticalUnderFakeClock) {
  // The tentpole determinism contract: a FakeClock-seeded tracer mints
  // the same ids in the same order, so two identical runs produce
  // byte-identical Chrome traces INCLUDING correlation ids.
  const auto run = [] {
    FakeClock clock(100);
    Tracer tracer(TracerConfig{.ring_capacity = 64, .clock = &clock});
    for (int round = 0; round < 3; ++round) {
      Span root = tracer.span("mev.test.request", mev::obs::TraceContext{});
      clock.advance(2);
      {
        Span child = tracer.span("mev.test.scan", root.context());
        clock.advance(3);
      }
      tracer.complete_span("mev.test.queue", root.context(), 0, 1000);
    }
    return tracer.chrome_trace();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_NE(first.find("trace_id"), std::string::npos);
  EXPECT_EQ(first, second);
}

TEST(Tracer, ContextPlumbingIsCallableInEveryBuildConfiguration) {
  // The correlation surface (make_context, correlated span, both
  // complete_span forms) must compile and run with obs on or off — the
  // serving path calls it unconditionally.
  FakeClock clock;
  Tracer tracer(TracerConfig{.ring_capacity = 4, .clock = &clock});
  const mev::obs::TraceContext ctx = tracer.make_context();
  EXPECT_TRUE(ctx.valid());
  {
    Span s = tracer.span("mev.test.op", ctx);
    s.finish();
  }
  tracer.complete_span("mev.test.stage", ctx, 0, 5);
  tracer.complete_span("mev.test.root", ctx, 0, 0, 5);
  // Null-safe free helpers: invalid context, inert span.
  EXPECT_FALSE(mev::obs::make_context(nullptr).valid());
  Span inert = mev::obs::span(nullptr, "mev.test.op", ctx);
  inert.finish();
}

TEST(Tracer, NullSafeHelpersAreInert) {
  // Compiles and runs identically with obs on or off.
  Span s = mev::obs::span(nullptr, "mev.test.op");
  s.arg("x", 1.0);
  s.finish();
  mev::obs::instant(nullptr, "mev.test.marker");
  SUCCEED();
}

TEST(Tracer, StubAndFullTracerExposeTheInjectedClock) {
  FakeClock clock(42);
  Tracer tracer(TracerConfig{.ring_capacity = 4, .clock = &clock});
  EXPECT_EQ(tracer.clock().now_ms(), 42u);
}

}  // namespace
