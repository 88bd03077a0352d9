// Tracer unit tests: span lifecycle, parent/child propagation through
// Scope and explicit contexts, Chrome trace_event export shape, and the
// logging context hook. The tracer is global, so every test runs
// against a cleared, freshly-enabled instance and disables it on exit
// (tracing off is the process default other suites rely on).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace hcm::obs {
namespace {

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer().clear();
    tracer().set_enabled(true);
  }
  void TearDown() override {
    tracer().set_enabled(false);
    tracer().clear();
  }
  static Tracer& tracer() { return Tracer::global(); }
};

TEST(TracerDisabledTest, DisabledTracerRecordsNothing) {
  Tracer& t = Tracer::global();
  ASSERT_FALSE(t.enabled());  // process default
  EXPECT_EQ(t.begin_span("x", "test", 0), 0u);
  EXPECT_EQ(t.span_count(), 0u);
  EXPECT_FALSE(t.current().valid());
}

TEST_F(TracerTest, RootSpanStartsNewTrace) {
  auto id = tracer().begin_span("root", "test", 100);
  ASSERT_NE(id, 0u);
  tracer().end_span(id, 250);
  ASSERT_EQ(tracer().span_count(), 1u);
  const Span& s = tracer().spans()[0];
  EXPECT_NE(s.trace_id, 0u);
  EXPECT_EQ(s.span_id, id);
  EXPECT_EQ(s.parent_span_id, 0u);
  EXPECT_EQ(s.name, "root");
  EXPECT_EQ(s.component, "test");
  EXPECT_EQ(s.start, 100u);
  EXPECT_EQ(s.end, 250u);
  EXPECT_FALSE(s.open);
  EXPECT_TRUE(s.ok);
}

TEST_F(TracerTest, ScopeParentsChildrenToCurrentContext) {
  auto root = tracer().begin_span("root", "test", 0);
  std::uint64_t child = 0;
  {
    Tracer::Scope scope(tracer(), tracer().context_of(root));
    child = tracer().begin_span("child", "test", 10);
  }
  // Scope exited: the next span starts a fresh trace.
  auto stranger = tracer().begin_span("stranger", "test", 20);

  const auto& spans = tracer().spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].span_id, child);
  EXPECT_EQ(spans[1].parent_span_id, root);
  EXPECT_EQ(spans[1].trace_id, spans[0].trace_id);
  EXPECT_EQ(spans[2].span_id, stranger);
  EXPECT_EQ(spans[2].parent_span_id, 0u);
  EXPECT_NE(spans[2].trace_id, spans[0].trace_id);
}

TEST_F(TracerTest, WireContextResumesTraceOnRemoteSide) {
  // Client side: a call span whose context crosses the wire.
  auto call = tracer().begin_span("call", "client", 0);
  TraceContext wire = tracer().context_of(call);
  EXPECT_TRUE(wire.valid());

  // Server side (conceptually another process): installing the wire
  // context makes the server span a child of the client call span.
  Tracer::Scope scope(tracer(), wire);
  auto server = tracer().begin_span("serve", "server", 5);
  const Span& s = tracer().spans().back();
  EXPECT_EQ(s.span_id, server);
  EXPECT_EQ(s.parent_span_id, call);
  EXPECT_EQ(s.trace_id, wire.trace_id);
}

TEST_F(TracerTest, EndSpanRecordsFailure) {
  auto id = tracer().begin_span("fails", "test", 0);
  tracer().end_span(id, 9, /*ok=*/false);
  EXPECT_FALSE(tracer().spans()[0].ok);
}

TEST_F(TracerTest, ContextOfUnknownSpanIsInvalid) {
  EXPECT_FALSE(tracer().context_of(12345).valid());
  EXPECT_FALSE(tracer().context_of(0).valid());
}

TEST_F(TracerTest, ContextOfZeroSkipsTheSpanScan) {
  // Span id 0 means "not traced": its (empty) context must come back
  // without a scan, however many spans are recorded.
  for (int i = 0; i < 20000; ++i) tracer().begin_span("s", "test", i);
  auto time = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 500; ++i) fn();
    return std::chrono::steady_clock::now() - t0;
  };
  const auto zero = time([&] {
    EXPECT_FALSE(tracer().context_of(0).valid());
  });
  const auto missing = time([&] {
    EXPECT_FALSE(tracer().context_of(999999).valid());
  });
  EXPECT_LT(zero * 20, missing);
}

TEST_F(TracerTest, ClearResetsSpansAndCurrent) {
  auto id = tracer().begin_span("x", "test", 0);
  Tracer::Scope scope(tracer(), tracer().context_of(id));
  tracer().clear();
  EXPECT_EQ(tracer().span_count(), 0u);
  EXPECT_FALSE(tracer().current().valid());
}

TEST_F(TracerTest, ChromeExportContainsCompleteEventsAndThreadNames) {
  auto root = tracer().begin_span("hop \"one\"", "soap.client", 100);
  {
    Tracer::Scope scope(tracer(), tracer().context_of(root));
    auto child = tracer().begin_span("hop two", "soap.server", 150);
    tracer().end_span(child, 180);
  }
  tracer().end_span(root, 200);

  std::string json = tracer().export_chrome();
  EXPECT_TRUE(json_parse(json).is_ok()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("soap.client"), std::string::npos);
  EXPECT_NE(json.find("soap.server"), std::string::npos);
  // Quotes inside span names are escaped, not emitted raw.
  EXPECT_EQ(json.find("hop \"one\""), std::string::npos);
  EXPECT_NE(json.find("hop \\\"one\\\""), std::string::npos);
}

TEST_F(TracerTest, ChromeExportFiltersByTraceId) {
  auto a = tracer().begin_span("trace-a-root", "test", 0);
  tracer().end_span(a, 1);
  auto b = tracer().begin_span("trace-b-root", "test", 2);
  tracer().end_span(b, 3);
  const auto& spans = tracer().spans();
  std::string only_a = tracer().export_chrome(spans[0].trace_id);
  EXPECT_NE(only_a.find("trace-a-root"), std::string::npos);
  EXPECT_EQ(only_a.find("trace-b-root"), std::string::npos);
}

TEST_F(TracerTest, EnabledTracerTagsLogLinesWithContext) {
  std::string captured;
  Log::set_sink([&](LogLevel, const std::string&, const std::string& message) {
    captured = message;
  });
  auto old_level = Log::level();
  Log::set_level(LogLevel::kInfo);

  auto id = tracer().begin_span("op", "test", 0);
  {
    Tracer::Scope scope(tracer(), tracer().context_of(id));
    log_info("test", "doing work");
  }
  EXPECT_NE(captured.find("doing work"), std::string::npos);
  EXPECT_NE(captured.find("trace="), std::string::npos);
  EXPECT_NE(captured.find("span="), std::string::npos);

  // Outside any scope the provider adds nothing.
  log_info("test", "idle");
  EXPECT_EQ(captured.find("trace="), std::string::npos);

  Log::set_level(old_level);
  Log::set_sink(nullptr);
}

TEST_F(TracerTest, SpanCapDropsAndCounts) {
  auto& dropped_metric = Registry::global().counter("obs.trace.spans_dropped");
  const std::uint64_t metric_before = dropped_metric.value();
  tracer().set_max_spans(3);
  EXPECT_EQ(tracer().max_spans(), 3u);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(tracer().begin_span("soak", "test", i));
  }
  // First three recorded; the two past the cap were refused with id 0
  // (no id consumed, so a capped run's surviving ids match an uncapped
  // prefix) and counted both locally and in the global registry.
  EXPECT_EQ(tracer().span_count(), 3u);
  EXPECT_NE(ids[2], 0u);
  EXPECT_EQ(ids[3], 0u);
  EXPECT_EQ(ids[4], 0u);
  EXPECT_EQ(tracer().dropped_spans(), 2u);
  EXPECT_EQ(dropped_metric.value(), metric_before + 2);

  // end_span on a refused id is a harmless no-op.
  tracer().end_span(ids[3], 99);
  EXPECT_EQ(tracer().span_count(), 3u);

  // clear() frees the buffer and re-arms the cap for the next soak.
  tracer().clear();
  EXPECT_EQ(tracer().dropped_spans(), 0u);
  EXPECT_NE(tracer().begin_span("fresh", "test", 0), 0u);
  tracer().set_max_spans(Tracer::kDefaultMaxSpans);
}

TEST_F(TracerTest, UnboundedCapRecordsEverything) {
  tracer().set_max_spans(0);
  for (int i = 0; i < 64; ++i) tracer().begin_span("s", "test", i);
  EXPECT_EQ(tracer().span_count(), 64u);
  EXPECT_EQ(tracer().dropped_spans(), 0u);
  tracer().set_max_spans(Tracer::kDefaultMaxSpans);
}

}  // namespace
}  // namespace hcm::obs
