// Tests for the observability plane: trace-context wire format, the span
// store (lifecycle, ring cap), kernel/RPC span propagation, exporters, and
// the end-to-end detection -> diagnosis -> actuation -> recovery chain
// produced by the managed testbed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "apps/testbed.hpp"
#include "net/nic.hpp"
#include "net/rpc.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "sim/simulation.hpp"
#include "sim/span.hpp"

namespace softqos {
namespace {

// ---- TraceContext wire format ----

TEST(TraceContext, DefaultIsInvalid) {
  sim::TraceContext ctx;
  EXPECT_FALSE(ctx.valid());
}

TEST(TraceContext, SerializeParseRoundTrip) {
  sim::TraceContext ctx;
  ctx.traceId = 42;
  ctx.spanId = 7;
  const sim::TraceContext back = sim::TraceContext::parse(ctx.serialize());
  EXPECT_TRUE(back.valid());
  EXPECT_EQ(back.traceId, 42u);
  EXPECT_EQ(back.spanId, 7u);
}

TEST(TraceContext, MalformedTextParsesInvalid) {
  EXPECT_FALSE(sim::TraceContext::parse("").valid());
  EXPECT_FALSE(sim::TraceContext::parse("42").valid());
  EXPECT_FALSE(sim::TraceContext::parse("a:b").valid());
  EXPECT_FALSE(sim::TraceContext::parse("1:2:3").valid());
  EXPECT_FALSE(sim::TraceContext::parse("0:5").valid());   // trace 0 = invalid
  EXPECT_FALSE(sim::TraceContext::parse("1x:5").valid());
}

// ---- Span store ----

struct ObserverFixture : ::testing::Test {
  sim::Simulation s{1};
  obs::Observer ob{s};
};

TEST_F(ObserverFixture, SpanLifecycle) {
  const sim::TraceContext root = ob.beginTrace(sim::msec(1), "episode:fps",
                                               "sensor:s1");
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(root.parentSpanId, 0u);

  const sim::TraceContext child =
      ob.beginSpan(sim::msec(2), root, "diagnose", "qoshm:h");
  EXPECT_EQ(child.traceId, root.traceId);
  EXPECT_EQ(child.parentSpanId, root.spanId);

  ob.annotate(child, "pid", "12");
  ob.endSpan(sim::msec(5), child);
  ob.endSpan(sim::msec(9), root);

  ASSERT_EQ(ob.spans().size(), 2u);
  const obs::Span* rootSpan = ob.findSpan(root.spanId);
  ASSERT_NE(rootSpan, nullptr);
  EXPECT_EQ(rootSpan->name, "episode:fps");
  EXPECT_EQ(rootSpan->component, "sensor:s1");
  EXPECT_EQ(rootSpan->start, sim::msec(1));
  EXPECT_EQ(rootSpan->end, sim::msec(9));
  EXPECT_FALSE(rootSpan->open());

  const obs::Span* childSpan = ob.findSpan(child.spanId);
  ASSERT_NE(childSpan, nullptr);
  ASSERT_EQ(childSpan->annotations.size(), 1u);
  EXPECT_EQ(childSpan->annotations[0].first, "pid");
  EXPECT_EQ(childSpan->annotations[0].second, "12");
}

TEST_F(ObserverFixture, InvalidParentStartsFreshTrace) {
  const sim::TraceContext a =
      ob.beginSpan(0, sim::TraceContext{}, "orphan", "c");
  const sim::TraceContext b = ob.beginTrace(0, "root", "c");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.parentSpanId, 0u);
  EXPECT_NE(a.traceId, b.traceId);
}

TEST_F(ObserverFixture, InstantIsZeroDuration) {
  const sim::TraceContext root = ob.beginTrace(sim::msec(1), "root", "c");
  const sim::TraceContext mark =
      ob.instant(sim::msec(3), root, "actuate:boost-cpu", "qoshm:h");
  const obs::Span* span = ob.findSpan(mark.spanId);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->start, sim::msec(3));
  EXPECT_EQ(span->end, sim::msec(3));
  EXPECT_FALSE(span->open());
  EXPECT_EQ(span->parentSpanId, root.spanId);
}

TEST_F(ObserverFixture, RingCapDropsOldestAndEvictedSpansNoOp) {
  ob.setMaxSpans(2);
  const sim::TraceContext first = ob.beginTrace(0, "first", "c");
  ob.beginTrace(0, "second", "c");
  ob.beginTrace(0, "third", "c");

  EXPECT_EQ(ob.spans().size(), 2u);
  EXPECT_EQ(ob.droppedSpans(), 1u);
  EXPECT_EQ(ob.totalSpans(), 3u);
  EXPECT_EQ(ob.findSpan(first.spanId), nullptr);
  EXPECT_EQ(ob.spans().front().name, "second");

  // Closing or annotating an evicted span must be a silent no-op.
  ob.endSpan(sim::msec(1), first);
  ob.annotate(first, "k", "v");
  EXPECT_EQ(ob.spans().front().name, "second");
}

TEST_F(ObserverFixture, SettingCapTrimsExistingSpans) {
  for (int i = 0; i < 5; ++i) ob.beginTrace(0, "t", "c");
  ob.setMaxSpans(2);
  EXPECT_EQ(ob.spans().size(), 2u);
  EXPECT_EQ(ob.droppedSpans(), 3u);
}

TEST_F(ObserverFixture, DetachStopsRecordingAndProfiling) {
  s.after(sim::msec(1), [] {});
  s.runAll();
  const sim::Histogram* cb = s.metrics().histogram("evq.callback_ns");
  ASSERT_NE(cb, nullptr);
  const std::uint64_t before = cb->count();
  EXPECT_GT(before, 0u);

  ob.detach();
  EXPECT_EQ(s.observer(), nullptr);
  s.after(sim::msec(2), [] {});
  s.runAll();
  EXPECT_EQ(cb->count(), before);
}

TEST_F(ObserverFixture, KernelProfilingFillsHistograms) {
  for (int i = 0; i < 10; ++i) s.after(sim::msec(i + 1), [] {});
  s.runAll();
  const sim::Histogram* depth = s.metrics().histogram("evq.depth");
  const sim::Histogram* cb = s.metrics().histogram("evq.callback_ns");
  ASSERT_NE(depth, nullptr);
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(depth->count(), 10u);
  EXPECT_EQ(cb->count(), 10u);
}

TEST_F(ObserverFixture, ProfileTimerRecordsPerComponentHistogram) {
  {
    sim::ProfileTimer t(&ob, "coordinator");
  }
  const sim::Histogram* h = s.metrics().histogram("profile.coordinator.wall_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
}

// ---- Exporters ----

TEST_F(ObserverFixture, ChromeTraceEnvelopeNormalization) {
  // Parent explicitly ends at 5ms but its async child runs to 9ms: the
  // exporter must extend the parent so the child nests inside it.
  const sim::TraceContext root = ob.beginTrace(sim::msec(1), "root", "c");
  const sim::TraceContext child = ob.beginSpan(sim::msec(2), root, "kid", "c");
  ob.endSpan(sim::msec(5), root);
  ob.endSpan(sim::msec(9), child);

  const std::string json = obs::chromeTraceJson(ob);
  // root: ts=1000, normalized dur = 9000-1000.
  EXPECT_NE(json.find("\"name\":\"root\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":8000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(ObserverFixture, ChromeTraceEscapesJsonSpecials) {
  const sim::TraceContext root = ob.beginTrace(0, "quo\"te", "back\\slash");
  ob.annotate(root, "key", "line\nbreak");
  ob.endSpan(sim::msec(1), root);
  const std::string json = obs::chromeTraceJson(ob);
  EXPECT_NE(json.find("quo\\\"te"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

TEST(MetricsJson, SnapshotsAllMetricKinds) {
  sim::MetricRegistry m;
  m.count("boosts", 3);
  m.sample("fps", sim::sec(1), 28.0);
  m.observe("lat", 100.0);
  const std::string json = obs::metricsJson(m);
  EXPECT_NE(json.find("\"boosts\":3"), std::string::npos);
  EXPECT_NE(json.find("\"fps\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsJson, ObservabilitySectionSurfacesRingDropCounters) {
  sim::Simulation s{1};
  obs::Observer ob{s};
  const sim::TraceContext root = ob.beginTrace(0, "episode:test", "test");
  ob.instant(0, root, "violation", "test");
  ob.endSpan(sim::msec(1), root);

  obs::TraceSampler sampler(s, {});  // takes over as the active observer
  sampler.beginTrace(sim::msec(2), "episode:other", "test");
  sampler.finalFlush();

  const std::string json =
      obs::metricsJson(s.metrics(), &s.trace(), &ob, &sampler);
  EXPECT_NE(json.find("\"observability\""), std::string::npos);
  // sim::Trace ring: tracing is off here, so empty but reported.
  EXPECT_NE(json.find("\"trace_ring\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_records\":0"), std::string::npos);
  // Span store: the root and its instant, none dropped by the ring cap.
  EXPECT_NE(json.find("\"span_store\""), std::string::npos);
  EXPECT_NE(json.find("\"total_spans\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\":0"), std::string::npos);
  // Sampler: one trace seen; every eviction class reported.
  EXPECT_NE(json.find("\"sampler\""), std::string::npos);
  EXPECT_NE(json.find("\"total_traces\":1"), std::string::npos);
  EXPECT_NE(json.find("\"orphan_records\""), std::string::npos);
  EXPECT_NE(json.find("\"evicted_pending\""), std::string::npos);

  // Without the planes, the section is absent and the 1-arg overload's
  // output is unchanged.
  EXPECT_EQ(obs::metricsJson(s.metrics(), nullptr, nullptr, nullptr),
            obs::metricsJson(s.metrics()));
}

// ---- RPC span propagation ----

struct TracedRpcFixture : ::testing::Test {
  sim::Simulation s{1};
  obs::Observer ob{s};
  net::Network net{s};
  osim::Host ha{s, "a"};
  osim::Host hb{s, "b"};

  TracedRpcFixture() {
    net::ChannelConfig link;
    link.bytesPerSecond = 1e6;
    link.propagationDelay = sim::msec(1);
    net.link(net.attachHost(ha), net.attachHost(hb), link);
  }

  [[nodiscard]] bool hasSpanNamed(const std::string& name) const {
    return std::any_of(ob.spans().begin(), ob.spans().end(),
                       [&](const obs::Span& sp) { return sp.name == name; });
  }
};

TEST_F(TracedRpcFixture, CallAndServeSpansJoinOneTrace) {
  net::RpcEndpoint ea{net, ha, 7000};
  net::RpcEndpoint eb{net, hb, 7000};
  eb.setHandler("echo", [](const std::string& body,
                           net::RpcEndpoint::Responder respond) {
    respond(body);
  });

  const sim::TraceContext root = ob.beginTrace(0, "episode:test", "test");
  net::RpcEndpoint::CallOptions options;
  options.context = root;
  bool ok = false;
  ea.call("b", 7000, "echo", "payload", [&](bool o, std::string) { ok = o; },
          options);
  s.runAll();
  ASSERT_TRUE(ok);

  ASSERT_TRUE(hasSpanNamed("rpc:echo"));
  ASSERT_TRUE(hasSpanNamed("serve:echo"));
  const obs::Span* call = nullptr;
  const obs::Span* serve = nullptr;
  for (const obs::Span& sp : ob.spans()) {
    if (sp.name == "rpc:echo") call = &sp;
    if (sp.name == "serve:echo") serve = &sp;
  }
  EXPECT_EQ(call->traceId, root.traceId);
  EXPECT_EQ(call->parentSpanId, root.spanId);
  EXPECT_EQ(serve->traceId, root.traceId);  // context crossed the wire
  EXPECT_FALSE(call->open());
  EXPECT_FALSE(serve->open());
  // The successful call records its attempt count.
  const auto& ann = call->annotations;
  EXPECT_TRUE(std::any_of(ann.begin(), ann.end(), [](const auto& kv) {
    return kv.first == "attempts" && kv.second == "1";
  }));
  ASSERT_NE(s.metrics().histogram("rpc.roundtrip_us"), nullptr);
  EXPECT_EQ(s.metrics().histogram("rpc.roundtrip_us")->count(), 1u);
}

TEST_F(TracedRpcFixture, RetriesStayInsideTheCallSpan) {
  net::RpcEndpoint ea{net, ha, 7000};
  net::RpcEndpoint eb{net, hb, 7000};
  eb.setHandler("ping", [](const std::string&,
                           net::RpcEndpoint::Responder respond) {
    respond("pong");
  });
  // Crash the callee through the first attempt so the retry succeeds.
  eb.setEnabled(false);
  s.after(sim::msec(150), [&] { eb.setEnabled(true); });

  const sim::TraceContext root = ob.beginTrace(0, "episode:test", "test");
  net::RpcEndpoint::CallOptions options;
  options.context = root;
  options.timeout = sim::msec(100);
  options.maxAttempts = 3;
  bool ok = false;
  ea.call("b", 7000, "ping", "", [&](bool o, std::string) { ok = o; }, options);
  s.runAll();
  ASSERT_TRUE(ok);
  EXPECT_GE(ea.retries(), 1u);

  ASSERT_TRUE(hasSpanNamed("retry:2"));
  const obs::Span* call = nullptr;
  const obs::Span* retry = nullptr;
  for (const obs::Span& sp : ob.spans()) {
    if (sp.name == "rpc:ping") call = &sp;
    if (sp.name == "retry:2") retry = &sp;
  }
  ASSERT_NE(call, nullptr);
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->parentSpanId, call->spanId);  // nested in the call span
  EXPECT_EQ(retry->traceId, root.traceId);
}

TEST_F(TracedRpcFixture, DuplicateSuppressionEmitsInstant) {
  net::RpcEndpoint ea{net, ha, 7000};
  net::RpcEndpoint eb{net, hb, 7000};
  eb.setHandler("echo", [](const std::string& body,
                           net::RpcEndpoint::Responder respond) {
    respond(body);
  });
  // A timeout far below the ~4ms round trip forces a retransmit that reaches
  // the callee after the first request already executed.
  const sim::TraceContext root = ob.beginTrace(0, "episode:test", "test");
  net::RpcEndpoint::CallOptions options;
  options.context = root;
  options.timeout = sim::msec(1);
  options.backoffBase = sim::msec(1);
  options.maxAttempts = 4;
  bool called = false;
  ea.call("b", 7000, "echo", "x", [&](bool, std::string) { called = true; },
          options);
  s.runAll();
  ASSERT_TRUE(called);
  EXPECT_GE(eb.duplicateRequests(), 1u);
  EXPECT_EQ(eb.requestsHandled(), 1u);  // at-most-once held
  EXPECT_TRUE(hasSpanNamed("duplicate-suppressed"));
}

TEST_F(TracedRpcFixture, UntracedCallsMintNoSpans) {
  net::RpcEndpoint ea{net, ha, 7000};
  net::RpcEndpoint eb{net, hb, 7000};
  eb.setHandler("echo", [](const std::string& body,
                           net::RpcEndpoint::Responder respond) {
    respond(body);
  });
  ea.call("b", 7000, "echo", "x", [](bool, std::string) {});
  s.runAll();
  EXPECT_FALSE(hasSpanNamed("rpc:echo"));
  EXPECT_FALSE(hasSpanNamed("serve:echo"));
}

// ---- End-to-end chain through the managed testbed ----

TEST(ObsEndToEnd, ManagedTestbedProducesCompleteCausalChain) {
  apps::TestbedConfig config;
  config.seed = 1234;
  config.observability = true;
  apps::Testbed bed(config);
  ASSERT_NE(bed.observer, nullptr);
  ASSERT_EQ(bed.sim.observer(), bed.observer.get());

  bed.startVideo("silver");
  bed.clientLoad.setWorkers(6);
  bed.clientHost.loadSampler().prime(7.0);
  bed.sim.runUntil(sim::sec(40));

  // A violation episode was detected, diagnosed, actuated on and recovered.
  const obs::Span* episode = nullptr;
  for (const obs::Span& sp : bed.observer->spans()) {
    if (sp.name.rfind("episode:", 0) == 0 && !sp.open()) {
      episode = &sp;
      break;
    }
  }
  ASSERT_NE(episode, nullptr) << "no closed violation episode recorded";

  bool sawDiagnose = false;
  bool sawRule = false;
  bool sawActuate = false;
  bool sawRecovered = false;
  for (const obs::Span& sp : bed.observer->spans()) {
    if (sp.traceId != episode->traceId) continue;
    if (sp.name == "diagnose") sawDiagnose = true;
    if (sp.name.rfind("rule:", 0) == 0) sawRule = true;
    if (sp.name.rfind("actuate:", 0) == 0) sawActuate = true;
    if (sp.name == "recovered") sawRecovered = true;
  }
  EXPECT_TRUE(sawDiagnose);
  EXPECT_TRUE(sawRule);
  EXPECT_TRUE(sawActuate);
  EXPECT_TRUE(sawRecovered);

  // Reaction latency was measured on the simulation clock.
  const sim::Histogram* lat =
      bed.sim.metrics().histogram("qos.reaction_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->count(), 1u);
  EXPECT_GT(lat->p50(), 0.0);

  // Rule firings were profiled and attributed.
  const sim::Histogram* fire =
      bed.sim.metrics().histogram("rules.fire_wall_ns");
  ASSERT_NE(fire, nullptr);
  EXPECT_GE(fire->count(), 1u);
}

// Blank out the values of wall-clock annotations ("wall_ns":"<digits>"):
// they profile host time and legitimately differ between identical runs.
std::string scrubWallClock(const std::string& json) {
  const std::string key = "\"wall_ns\":\"";
  std::string out;
  std::size_t pos = 0;
  for (std::size_t hit; (hit = json.find(key, pos)) != std::string::npos;) {
    const std::size_t v = hit + key.size();
    out.append(json, pos, v - pos);
    out += '0';
    pos = json.find('"', v);
    if (pos == std::string::npos) pos = json.size();
  }
  out.append(json, pos, std::string::npos);
  return out;
}

TEST(ObsEndToEnd, TracedRunsAreDeterministic) {
  // Same seed + same scenario => identical trace export up to wall-clock
  // profiling values (span ids and all simulated timestamps come from
  // counters and the simulation clock, never from random streams).
  const auto runOnce = [] {
    apps::TestbedConfig config;
    config.seed = 77;
    config.observability = true;
    apps::Testbed bed(config);
    bed.startVideo("silver");
    bed.clientLoad.setWorkers(6);
    bed.clientHost.loadSampler().prime(7.0);
    bed.sim.runUntil(sim::sec(20));
    return scrubWallClock(obs::chromeTraceJson(*bed.observer));
  };
  const std::string a = runOnce();
  const std::string b = runOnce();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 2u);
}

TEST(ObsEndToEnd, ReactionLatencyRecordedEvenWithoutObserver) {
  // Sim-clock histograms are deterministic-safe (no events, no RNG), so the
  // testbed records them whether or not tracing is attached.
  apps::TestbedConfig config;
  config.seed = 1234;
  apps::Testbed bed(config);
  EXPECT_EQ(bed.observer, nullptr);
  bed.startVideo("silver");
  bed.clientLoad.setWorkers(6);
  bed.clientHost.loadSampler().prime(7.0);
  bed.sim.runUntil(sim::sec(40));
  const sim::Histogram* lat =
      bed.sim.metrics().histogram("qos.reaction_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->count(), 1u);
  // ... but no spans and no wall-clock profiling exist.
  EXPECT_EQ(bed.sim.metrics().histogram("evq.callback_ns"), nullptr);
}

}  // namespace
}  // namespace softqos
