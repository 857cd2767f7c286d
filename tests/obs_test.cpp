// Tests for the observability plane: trace-context wire format, the trace
// store (the keep-all TraceSampler: span lifecycle, detach), kernel/RPC span
// propagation, exporters, and the end-to-end detection -> diagnosis ->
// actuation -> recovery chain produced by the managed testbed, on the serial
// kernel and sharded.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "apps/testbed.hpp"
#include "net/nic.hpp"
#include "net/rpc.hpp"
#include "obs/export.hpp"
#include "obs/sampler.hpp"
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
  // 2^64 + 1 must not wrap around to trace 1 and alias a real trace.
  EXPECT_FALSE(sim::TraceContext::parse("18446744073709551617:1").valid());
  // An empty or zero span id would read as a second root.
  EXPECT_FALSE(sim::TraceContext::parse("5:").valid());
  EXPECT_FALSE(sim::TraceContext::parse("5:0").valid());
  EXPECT_FALSE(sim::TraceContext::parse(":5").valid());
  EXPECT_FALSE(sim::TraceContext::parse("-1:5").valid());
  EXPECT_FALSE(sim::TraceContext::parse("+1:5").valid());
  EXPECT_FALSE(sim::TraceContext::parse(" 1:5").valid());
  // The largest id still parses.
  const sim::TraceContext max =
      sim::TraceContext::parse("18446744073709551615:1");
  EXPECT_TRUE(max.valid());
  EXPECT_EQ(max.traceId, 18446744073709551615u);
}

// ---- Trace store ----

// The keep-all sampler the traced testbed attaches.
obs::SamplerConfig keepAll() {
  obs::SamplerConfig config;
  config.baselineProbability = 1.0;
  config.maxRetainedSpans = 0;
  return config;
}

// The retained span named `name`, searching every retained trace; `trace`
// receives its trace. Null when no retained span has that name.
const obs::SampledSpan* findSpan(const obs::TraceSampler& sampler,
                                 const std::string& name,
                                 const obs::SampledTrace** trace = nullptr) {
  for (const obs::SampledTrace* t : sampler.canonical()) {
    for (const obs::SampledSpan& sp : t->spans) {
      if (sp.name != name) continue;
      if (trace != nullptr) *trace = t;
      return &sp;
    }
  }
  return nullptr;
}

// Spans are driven by hand here. The sampler stamps annotations with the
// current sim time and orders records by time, so a test advances the clock
// to a span's start before annotating it.
struct ObserverFixture : ::testing::Test {
  sim::Simulation s{1};
  obs::TraceSampler ob{s, keepAll()};
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

  s.runUntil(sim::msec(2));
  ob.annotate(child, "pid", "12");
  ob.endSpan(sim::msec(5), child);
  ob.endSpan(sim::msec(9), root);
  ob.finalFlush();

  ASSERT_EQ(ob.retainedCount(), 1u);
  const obs::SampledTrace& trace = *ob.canonical().front();
  EXPECT_EQ(trace.provisionalTraceId, root.traceId);
  EXPECT_EQ(trace.reason, "baseline");
  EXPECT_TRUE(trace.complete);
  ASSERT_EQ(trace.spans.size(), 2u);
  const obs::SampledSpan& rootSpan = trace.spans[0];
  EXPECT_EQ(rootSpan.spanId, root.spanId);
  EXPECT_EQ(rootSpan.name, "episode:fps");
  EXPECT_EQ(rootSpan.component, "sensor:s1");
  EXPECT_EQ(rootSpan.start, sim::msec(1));
  EXPECT_EQ(rootSpan.end, sim::msec(9));
  EXPECT_FALSE(rootSpan.open());

  const obs::SampledSpan& childSpan = trace.spans[1];
  EXPECT_EQ(childSpan.spanId, child.spanId);
  ASSERT_EQ(childSpan.annotations.size(), 1u);
  EXPECT_EQ(childSpan.annotations[0].first, "pid");
  EXPECT_EQ(childSpan.annotations[0].second, "12");
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
  ob.finalFlush();
  const obs::SampledSpan* span = findSpan(ob, "actuate:boost-cpu");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->spanId, mark.spanId);
  EXPECT_EQ(span->start, sim::msec(3));
  EXPECT_EQ(span->end, sim::msec(3));
  EXPECT_FALSE(span->open());
  EXPECT_EQ(span->parentSpanId, root.spanId);
}

TEST_F(ObserverFixture, DetachStopsRecordingAndProfiling) {
  const auto traceIfObserved = [this](const char* name) {
    if (sim::SpanObserver* o = s.observer()) {
      o->endSpan(s.now(), o->beginTrace(s.now(), name, "c"));
    }
  };
  s.after(sim::msec(1), [&] { traceIfObserved("attached"); });
  s.runAll();

  ob.detach();
  EXPECT_EQ(s.observer(), nullptr);
  s.after(sim::msec(2), [&] { traceIfObserved("detached"); });
  s.runAll();

  ob.finalFlush();
  EXPECT_EQ(ob.totalTraces(), 1u);
  EXPECT_NE(findSpan(ob, "attached"), nullptr);
  EXPECT_EQ(findSpan(ob, "detached"), nullptr);
}

// ---- Exporters ----

TEST_F(ObserverFixture, ChromeTraceEnvelopeNormalization) {
  // Parent explicitly ends at 5ms but its async child runs to 9ms: the
  // exporter must extend the parent so the child nests inside it.
  const sim::TraceContext root = ob.beginTrace(sim::msec(1), "root", "c");
  const sim::TraceContext child = ob.beginSpan(sim::msec(2), root, "kid", "c");
  ob.endSpan(sim::msec(5), root);
  ob.endSpan(sim::msec(9), child);
  ob.finalFlush();

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
  ob.finalFlush();
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
  obs::TraceSampler sampler(s, {});
  const sim::TraceContext root = sampler.beginTrace(0, "episode:test", "test");
  sampler.instant(0, root, "violation", "test");
  sampler.endSpan(sim::msec(1), root);
  sampler.finalFlush();

  const std::string json = obs::metricsJson(s.metrics(), &s.trace(), &sampler);
  EXPECT_NE(json.find("\"observability\""), std::string::npos);
  // sim::Trace ring: tracing is off here, so empty but reported.
  EXPECT_NE(json.find("\"trace_ring\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_records\":0"), std::string::npos);
  // Sampler: one trace of two spans seen; every eviction class reported.
  EXPECT_NE(json.find("\"sampler\""), std::string::npos);
  EXPECT_NE(json.find("\"total_traces\":1"), std::string::npos);
  EXPECT_NE(json.find("\"total_spans\":2"), std::string::npos);
  EXPECT_NE(json.find("\"orphan_records\""), std::string::npos);
  EXPECT_NE(json.find("\"evicted_pending\""), std::string::npos);
  EXPECT_NE(json.find("\"evicted_retained\":0"), std::string::npos);

  // Without the planes, the section is absent and the 1-arg overload's
  // output is unchanged.
  EXPECT_EQ(obs::metricsJson(s.metrics(), nullptr, nullptr, nullptr),
            obs::metricsJson(s.metrics()));
}

// ---- RPC span propagation ----

struct TracedRpcFixture : ::testing::Test {
  sim::Simulation s{1};
  obs::TraceSampler ob{s, keepAll()};
  net::Network net{s};
  osim::Host ha{s, "a"};
  osim::Host hb{s, "b"};

  TracedRpcFixture() {
    net::ChannelConfig link;
    link.bytesPerSecond = 1e6;
    link.propagationDelay = sim::msec(1);
    net.link(net.attachHost(ha), net.attachHost(hb), link);
  }

  // Resolves every trace, so call it once the run is over.
  [[nodiscard]] bool hasSpanNamed(const std::string& name) {
    ob.finalFlush();
    return findSpan(ob, name) != nullptr;
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
  const obs::SampledTrace* callTrace = nullptr;
  const obs::SampledTrace* serveTrace = nullptr;
  const obs::SampledSpan* call = findSpan(ob, "rpc:echo", &callTrace);
  const obs::SampledSpan* serve = findSpan(ob, "serve:echo", &serveTrace);
  EXPECT_EQ(callTrace->provisionalTraceId, root.traceId);
  EXPECT_EQ(call->parentSpanId, root.spanId);
  // The context crossed the wire.
  EXPECT_EQ(serveTrace->provisionalTraceId, root.traceId);
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
  const obs::SampledTrace* retryTrace = nullptr;
  const obs::SampledSpan* call = findSpan(ob, "rpc:ping");
  const obs::SampledSpan* retry = findSpan(ob, "retry:2", &retryTrace);
  ASSERT_NE(call, nullptr);
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->parentSpanId, call->spanId);  // nested in the call span
  EXPECT_EQ(retryTrace->provisionalTraceId, root.traceId);
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
  ASSERT_NE(bed.sampler, nullptr);
  ASSERT_EQ(bed.sim.observer(), bed.sampler.get());

  bed.startVideo("silver");
  bed.clientLoad.setWorkers(6);
  bed.clientHost.loadSampler().prime(7.0);
  bed.sim.runUntil(sim::sec(40));
  bed.sampler->finalFlush();

  // A violation episode was detected, diagnosed, actuated on and recovered.
  const obs::SampledTrace* episode = nullptr;
  for (const obs::SampledTrace* t : bed.sampler->canonical()) {
    if (t->rootName.rfind("episode:", 0) == 0 && t->complete) {
      episode = t;
      break;
    }
  }
  ASSERT_NE(episode, nullptr) << "no closed violation episode recorded";

  bool sawDiagnose = false;
  bool sawRule = false;
  bool sawActuate = false;
  bool sawRecovered = false;
  for (const obs::SampledSpan& sp : episode->spans) {
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

TEST(ObsEndToEnd, TracedRunsAreDeterministic) {
  // Same seed + same scenario => byte-identical trace export: span ids and
  // all simulated timestamps come from counters and the simulation clock,
  // never from random streams, and no span carries a wall-clock value.
  const auto runOnce = [] {
    apps::TestbedConfig config;
    config.seed = 77;
    config.observability = true;
    apps::Testbed bed(config);
    bed.startVideo("silver");
    bed.clientLoad.setWorkers(6);
    bed.clientHost.loadSampler().prime(7.0);
    bed.sim.runUntil(sim::sec(20));
    bed.sampler->finalFlush();
    return obs::chromeTraceJson(*bed.sampler);
  };
  const std::string a = runOnce();
  const std::string b = runOnce();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 2u);
}

// obs_export's default scenario: CPU contention on the client, then
// bottleneck cross traffic, then a quiet tail.
std::string tracedExportScenario(unsigned parallelShards) {
  apps::TestbedConfig config;
  config.seed = 1234;
  config.observability = true;
  config.parallelShards = parallelShards;
  apps::Testbed bed(config);
  bed.startVideo("silver");
  bed.clientLoad.setWorkers(6);
  bed.clientHost.loadSampler().prime(7.0);
  bed.sim.runUntil(sim::sec(30));
  bed.setCrossTraffic(9.0);
  bed.sim.runUntil(sim::sec(60));
  bed.setCrossTraffic(0.0);
  bed.sim.runUntil(sim::sec(90));
  bed.sampler->finalFlush();
  return obs::chromeTraceJson(*bed.sampler);
}

TEST(ObsEndToEnd, ShardedTestbedTraceMatchesSerial) {
  // The sampler is shard-safe and its ids serialize to the same length at
  // every shard count, so tracing a sharded testbed exports exactly the
  // serial run's document.
  const std::string serial = tracedExportScenario(1);
  ASSERT_NE(serial.find("fault-localization"), std::string::npos);
  EXPECT_EQ(tracedExportScenario(3), serial);
}

TEST(ObsEndToEnd, ReactionLatencyRecordedEvenWithoutObserver) {
  // Sim-clock histograms are deterministic-safe (no events, no RNG), so the
  // testbed records them whether or not tracing is attached.
  apps::TestbedConfig config;
  config.seed = 1234;
  apps::Testbed bed(config);
  EXPECT_EQ(bed.sampler, nullptr);
  EXPECT_EQ(bed.sim.observer(), nullptr);
  bed.startVideo("silver");
  bed.clientLoad.setWorkers(6);
  bed.clientHost.loadSampler().prime(7.0);
  bed.sim.runUntil(sim::sec(40));
  const sim::Histogram* lat =
      bed.sim.metrics().histogram("qos.reaction_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->count(), 1u);
  // ... but no rule firing was wall-clock timed (untimed firings record 0).
  const sim::Histogram* fire =
      bed.sim.metrics().histogram("rules.fire_wall_ns");
  ASSERT_NE(fire, nullptr);
  EXPECT_GE(fire->count(), 1u);
  EXPECT_EQ(fire->max(), 0.0);
}

}  // namespace
}  // namespace softqos
