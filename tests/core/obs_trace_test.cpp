// End-to-end observability over the Fig. 3 smart home: one trace id
// follows a call chain across three middleware islands (HAVi -> Jini,
// then X10 -> HAVi under the same root span), every hop appears as a
// causally-linked span, the export is deterministic across identical
// sim runs, and the ObservabilityService is itself reachable through
// the framework from a foreign island.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "testbed/home.hpp"

namespace hcm::testbed {
namespace {

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::global().clear();
    obs::Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::global().set_enabled(false);
    obs::Tracer::global().clear();
  }

  // Runs one adapter invocation to completion under the given context.
  Result<Value> invoke_in_scope(sim::Scheduler& sched,
                                core::MiddlewareAdapter& adapter,
                                const obs::TraceContext& ctx,
                                const std::string& service,
                                const std::string& method) {
    std::optional<Result<Value>> result;
    {
      obs::Tracer::Scope scope(obs::Tracer::global(), ctx);
      adapter.invoke(service, method, {},
                     [&](Result<Value> r) { result = std::move(r); });
    }
    sim::run_until_done(sched, [&] { return result.has_value(); });
    EXPECT_TRUE(result.has_value()) << service << "." << method;
    return result.value_or(internal_error("no result"));
  }

  static const obs::Span* span_named(const std::vector<obs::Span>& spans,
                                     std::uint64_t trace_id,
                                     const std::string& name) {
    for (const auto& s : spans) {
      if (s.trace_id == trace_id && s.name == name) return &s;
    }
    return nullptr;
  }

  static const obs::Span* span_by_id(const std::vector<obs::Span>& spans,
                                     std::uint64_t span_id) {
    for (const auto& s : spans) {
      if (s.span_id == span_id) return &s;
    }
    return nullptr;
  }

  // The chain scenario shared by the trace-shape and determinism tests:
  // a root "scenario" span, one HAVi->Jini invocation and one X10->HAVi
  // invocation as its children. Returns the root trace id.
  std::uint64_t run_chain(sim::Scheduler& sched, SmartHome& home) {
    auto& tracer = obs::Tracer::global();
    const std::uint64_t root =
        tracer.begin_span("scenario", "test", sched.now());
    const obs::TraceContext root_ctx = tracer.context_of(root);
    EXPECT_TRUE(invoke_in_scope(sched, *home.havi_adapter, root_ctx,
                                "laserdisc-1", "getStatus")
                    .is_ok());
    EXPECT_TRUE(invoke_in_scope(sched, *home.x10_adapter, root_ctx, "camera-1",
                                "startCapture")
                    .is_ok());
    tracer.end_span(root, sched.now());
    return root_ctx.trace_id;
  }
};

TEST_F(ObsTraceTest, ThreeIslandChainSharesOneTraceId) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.refresh().is_ok());
  const std::uint64_t trace_id = run_chain(sched, home);

  const auto& spans = obs::Tracer::global().spans();
  // Hop 1 (HAVi island -> Jini island), innermost to outermost:
  // adapter -> VSG dispatch -> SOAP server -> SOAP call -> VSG call ->
  // origin adapter -> root. One unbroken parent chain, one trace id.
  const obs::Span* leaf =
      span_named(spans, trace_id, "jini.invoke:laserdisc-1.getStatus");
  ASSERT_NE(leaf, nullptr) << "trace did not reach the Jini adapter";
  const char* expected_chain[] = {
      "vsg.dispatch:laserdisc-1.getStatus", "soap.server:getStatus",
      "soap.call:getStatus", "vsg.call:laserdisc-1.getStatus",
      "havi.invoke:laserdisc-1.getStatus", "scenario"};
  const obs::Span* cursor = leaf;
  for (const char* expected : expected_chain) {
    cursor = span_by_id(spans, cursor->parent_span_id);
    ASSERT_NE(cursor, nullptr) << "chain broke below " << expected;
    EXPECT_EQ(cursor->name, expected);
    EXPECT_EQ(cursor->trace_id, trace_id);
  }
  EXPECT_EQ(cursor->parent_span_id, 0u);  // the scenario span is the root

  // Hop 2 (X10 island -> HAVi island) rides the same trace.
  const obs::Span* hop2_leaf =
      span_named(spans, trace_id, "havi.invoke:camera-1.startCapture");
  ASSERT_NE(hop2_leaf, nullptr);
  const obs::Span* hop2_entry =
      span_named(spans, trace_id, "x10.invoke:camera-1.startCapture");
  ASSERT_NE(hop2_entry, nullptr);

  // The full chain crossed three adapters; every span closed, on
  // monotone virtual-time bounds.
  std::size_t in_trace = 0;
  for (const auto& s : spans) {
    if (s.trace_id != trace_id) continue;
    ++in_trace;
    EXPECT_FALSE(s.open) << s.name;
    EXPECT_LE(s.start, s.end) << s.name;
  }
  EXPECT_GE(in_trace, 13u);  // root + 6 spans per hop
}

TEST_F(ObsTraceTest, ChromeExportHoldsCausallyLinkedSpans) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.refresh().is_ok());
  const std::uint64_t trace_id = run_chain(sched, home);

  std::string json = obs::Tracer::global().export_chrome(trace_id);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // >= 6 complete events, all causally linked (checked span-wise above;
  // here the export itself must carry them).
  std::size_t events = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_GE(events, 6u);
  EXPECT_NE(json.find("soap.server:getStatus"), std::string::npos);
  EXPECT_NE(json.find("jini.invoke:laserdisc-1.getStatus"),
            std::string::npos);
}

TEST_F(ObsTraceTest, SpanCountStableAcrossIdenticalRuns) {
  auto run_once = [this]() -> std::size_t {
    obs::Tracer::global().clear();
    sim::Scheduler sched;
    SmartHome home(sched);
    EXPECT_TRUE(home.refresh().is_ok());
    const std::uint64_t trace_id = run_chain(sched, home);
    std::size_t n = 0;
    for (const auto& s : obs::Tracer::global().spans()) {
      if (s.trace_id == trace_id) ++n;
    }
    return n;
  };
  const std::size_t first = run_once();
  const std::size_t second = run_once();
  EXPECT_GE(first, 13u);
  EXPECT_EQ(first, second);
}

TEST_F(ObsTraceTest, ObservabilityServiceReachableFromForeignIsland) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.meta->enable_observability("jini-island").is_ok());
  EXPECT_TRUE(home.meta->observability_enabled("jini-island"));
  ASSERT_TRUE(home.refresh().is_ok());
  // The introspection entry sits in the VSR next to the 8 services.
  EXPECT_EQ(home.vsr->registry().size(), 9u);

  // Record some spans, then read the span count back from the HAVi
  // island: the call itself crosses HAVi -> Jini through the VSGs.
  const std::uint64_t trace_id = run_chain(sched, home);

  std::optional<Result<Value>> count;
  home.havi_adapter->invoke("observability-jini-island", "getSpanCount", {},
                            [&](Result<Value> r) { count = std::move(r); });
  sim::run_until_done(sched, [&] { return count.has_value(); });
  ASSERT_TRUE(count.has_value());
  ASSERT_TRUE(count->is_ok()) << count->status().to_string();
  ASSERT_TRUE(count->value().is_int());
  EXPECT_GE(count->value().as_int(), 13);

  // getMetrics serves a registry snapshot across the same path.
  std::optional<Result<Value>> metrics;
  home.havi_adapter->invoke("observability-jini-island", "getMetrics",
                            {Value(std::string("http."))},
                            [&](Result<Value> r) { metrics = std::move(r); });
  sim::run_until_done(sched, [&] { return metrics.has_value(); });
  ASSERT_TRUE(metrics.has_value());
  ASSERT_TRUE(metrics->is_ok()) << metrics->status().to_string();
  ASSERT_TRUE(metrics->value().is_map());
  EXPECT_FALSE(metrics->value().as_map().empty());

  // getTrace returns the Chrome export for the recorded chain.
  std::optional<Result<Value>> trace;
  home.havi_adapter->invoke(
      "observability-jini-island", "getTrace",
      {Value(static_cast<std::int64_t>(trace_id))},
      [&](Result<Value> r) { trace = std::move(r); });
  sim::run_until_done(sched, [&] { return trace.has_value(); });
  ASSERT_TRUE(trace.has_value());
  ASSERT_TRUE(trace->is_ok()) << trace->status().to_string();
  ASSERT_TRUE(trace->value().is_string());
  EXPECT_NE(trace->value().as_string().find("\"traceEvents\""),
            std::string::npos);
}

TEST_F(ObsTraceTest, ObservabilityExportKeepsOriginRenewalOnTheFastPath) {
  // The introspection entry is one of jini-island's VSR entries, so the
  // island's renewOrigin fingerprint must cover it: each refresh renews
  // the whole set in one call instead of republishing it.
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.meta->enable_observability("jini-island").is_ok());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(home.refresh().is_ok());
    sched.run_for(sim::seconds(40));
  }
  EXPECT_EQ(home.meta->island("jini-island")->pcm->renew_fallbacks(), 0u);
  EXPECT_EQ(home.vsr->registry().size(), 9u);
}

TEST_F(ObsTraceTest, EnableObservabilityValidatesIsland) {
  sim::Scheduler sched;
  SmartHome home(sched);
  auto missing = home.meta->enable_observability("atlantis");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_FALSE(home.meta->observability_enabled("atlantis"));
  ASSERT_TRUE(home.meta->enable_observability("jini-island").is_ok());
  // Enabling twice is idempotent.
  EXPECT_TRUE(home.meta->enable_observability("jini-island").is_ok());
}

TEST_F(ObsTraceTest, RefreshRenewsObservabilityLease) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.meta->enable_observability("jini-island").is_ok());
  ASSERT_TRUE(home.refresh().is_ok());
  EXPECT_EQ(home.vsr->registry().size(), 9u);
  // Two publish TTLs later, with refreshes in between, the entry must
  // still be leased (the PCM renews it with the island's set).
  sched.run_for(core::Pcm::kPublishTtl / 2);
  ASSERT_TRUE(home.refresh().is_ok());
  sched.run_for(core::Pcm::kPublishTtl / 2);
  ASSERT_TRUE(home.refresh().is_ok());
  EXPECT_EQ(home.vsr->registry().size(), 9u);
}

TEST_F(ObsTraceTest, HealthTransitionsCrossTheEventBridge) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.meta->enable_observability("jini-island").is_ok());
  ASSERT_TRUE(home.refresh().is_ok());

  // Wire a recorder + monitor into the framework exposure.
  obs::TimeSeriesOptions opts;
  opts.tiers = {{sim::seconds(1), 16}};
  opts.prefixes = {"bridgetest."};
  obs::TimeSeriesRecorder rec(opts);
  obs::HealthMonitor mon;
  ASSERT_TRUE(mon.add_rule_spec("hot: value(bridgetest.*) > 5").is_ok());
  rec.set_health(&mon);
  home.meta->attach_telemetry(&rec, &mon);

  // Subscribe from the HAVi island to the Jini island's observability
  // exposure. The service is framework-exposed (no adapter behind it),
  // so the bridge resolves its event list via the VSG interface
  // fallback rather than an adapter watch.
  std::vector<Value> received;
  std::optional<Result<std::string>> lease;
  home.meta->island("havi-island")
      ->events->subscribe(
          "observability-jini-island", "healthChanged", {},
          [&](const std::string&, const std::string& ev, const Value& payload) {
            EXPECT_EQ(ev, "healthChanged");
            received.push_back(payload);
          },
          [&](Result<std::string> r) { lease = std::move(r); });
  sim::run_until_done(sched, [&] { return lease.has_value(); });
  ASSERT_TRUE(lease.has_value());
  ASSERT_TRUE(lease->is_ok()) << lease->status().to_string();

  // Force unknown->ok then ok->breach; each transition is re-injected
  // as a native healthChanged event on the origin island and bridged.
  const sim::SimTime t0 = sched.now();
  auto& g = obs::Registry::global().gauge("bridgetest.temp");
  g.set(1);
  rec.sample_until(t0 + sim::seconds(1));
  g.set(9);
  rec.sample_until(t0 + sim::seconds(2));
  sim::run_until_done(sched, [&] { return received.size() >= 2; });
  ASSERT_GE(received.size(), 2u);
  const Value& breach = received.back();
  EXPECT_EQ(breach.at("rule").as_string(), "hot");
  EXPECT_EQ(breach.at("from").as_string(), "ok");
  EXPECT_EQ(breach.at("to").as_string(), "breach");
  EXPECT_EQ(breach.at("series").as_string(), "bridgetest.temp");
  EXPECT_DOUBLE_EQ(breach.at("value").as_double(), 9.0);

  // The polling twins of the push path: getHealth and getSeries serve
  // the same monitor and recorder across the wire.
  std::optional<Result<Value>> health;
  home.havi_adapter->invoke("observability-jini-island", "getHealth", {},
                            [&](Result<Value> r) { health = std::move(r); });
  sim::run_until_done(sched, [&] { return health.has_value(); });
  ASSERT_TRUE(health.has_value());
  ASSERT_TRUE(health->is_ok()) << health->status().to_string();
  EXPECT_EQ(health->value().at("state").as_string(), "breach");
  EXPECT_EQ(health->value().at("rules").at("hot").at("state").as_string(),
            "breach");

  std::optional<Result<Value>> series;
  home.havi_adapter->invoke(
      "observability-jini-island", "getSeries",
      {Value(std::string("bridgetest.")),
       Value(static_cast<std::int64_t>(sim::seconds(5)))},
      [&](Result<Value> r) { series = std::move(r); });
  sim::run_until_done(sched, [&] { return series.has_value(); });
  ASSERT_TRUE(series.has_value());
  ASSERT_TRUE(series->is_ok()) << series->status().to_string();
  const Value& reply = series->value();
  EXPECT_EQ(reply.at("period_us").as_int(), sim::seconds(1));
  ASSERT_TRUE(reply.at("series").is_map());
  EXPECT_EQ(reply.at("series").as_map().count("bridgetest.temp"), 1u);
}

TEST_F(ObsTraceTest, TelemetryOpsUnavailableWithoutBackends) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.meta->enable_observability("jini-island").is_ok());
  ASSERT_TRUE(home.refresh().is_ok());
  // No attach_telemetry: the ops answer kUnavailable, not a crash.
  std::optional<Result<Value>> health;
  home.havi_adapter->invoke("observability-jini-island", "getHealth", {},
                            [&](Result<Value> r) { health = std::move(r); });
  sim::run_until_done(sched, [&] { return health.has_value(); });
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace hcm::testbed
