// Tail-based trace sampling: retention policy units (trigger prefixes,
// explicit marks, slow threshold, slowest-K reservoir, seeded baseline,
// bounded memory with counted evictions), the completion linger that lets
// late asynchronous spans join a cleared episode, and the city-level
// determinism contract — the retained-trace export is byte-identical
// between the serial kernel and 2-/4-shard windowed runs, at multiple
// seeds, with the provisional-id scheme keeping serialized contexts the
// same byte length everywhere.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "apps/city.hpp"
#include "obs/export.hpp"
#include "obs/sampler.hpp"
#include "sim/simulation.hpp"
#include "sim/span.hpp"

namespace softqos {
namespace {

// ---- Retention policy units (serial sim, spans driven by hand) ----------

struct SamplerFixture : ::testing::Test {
  sim::Simulation s{1};

  obs::SamplerConfig base() {
    obs::SamplerConfig config;
    config.completionLinger = 0;  // units graduate at the first flush
    return config;
  }

  /// One complete trace: root `rootName` [t0, t1] with one child span.
  sim::TraceContext emit(obs::TraceSampler& sampler, const std::string& root,
                         const std::string& child, sim::SimTime t0,
                         sim::SimTime t1) {
    const sim::TraceContext ctx = sampler.beginTrace(t0, root, "test-host");
    const sim::TraceContext c = sampler.beginSpan(t0, ctx, child, "test-host");
    sampler.endSpan(t1, c);
    sampler.endSpan(t1, ctx);
    return ctx;
  }
};

TEST_F(SamplerFixture, TriggerPrefixRetainsWholeTrace) {
  obs::TraceSampler sampler(s, base());
  emit(sampler, "episode:fps", "fault-localization", sim::msec(1),
       sim::msec(2));
  emit(sampler, "episode:fps", "diagnose", sim::msec(1), sim::msec(2));
  sampler.flush();

  ASSERT_EQ(sampler.retainedCount(), 1u);
  const obs::SampledTrace* t = sampler.retained()[0];
  EXPECT_EQ(t->reason, "trigger:fault-localization");
  EXPECT_EQ(t->spans.size(), 2u);
  EXPECT_TRUE(t->complete);
  EXPECT_EQ(sampler.droppedTraces(), 1u);
  EXPECT_EQ(sampler.totalTraces(), 2u);
  EXPECT_TRUE(sampler.canonicalTraceId(t->provisionalTraceId).has_value());
}

TEST_F(SamplerFixture, ContractRootsAndExplicitMarksRetain) {
  obs::TraceSampler sampler(s, base());
  emit(sampler, "contract:degraded", "detail", sim::msec(1), sim::msec(1));
  // annotate() stamps the live sim clock (0 here), so the marked trace
  // must begin at or before it for the records to sort causally.
  const sim::TraceContext marked =
      sampler.beginTrace(0, "episode:fps", "test-host");
  sampler.annotate(marked, obs::TraceSampler::kRetainKey, "operator-pin");
  sampler.endSpan(sim::msec(3), marked);
  sampler.flush();

  // Completed traces resolve in root-start order: the marked trace (t=0)
  // lands before the contract one (t=1ms).
  ASSERT_EQ(sampler.retainedCount(), 2u);
  EXPECT_EQ(sampler.retained()[0]->reason, "mark:operator-pin");
  EXPECT_EQ(sampler.retained()[1]->reason, "trigger:contract:");
}

TEST_F(SamplerFixture, SlowThresholdRetainsDeadlineViolators) {
  obs::SamplerConfig config = base();
  config.slowThreshold = sim::msec(100);
  obs::TraceSampler sampler(s, config);
  emit(sampler, "episode:fast", "work", sim::msec(1), sim::msec(50));
  emit(sampler, "episode:slow", "work", sim::msec(1), sim::msec(200));
  sampler.flush();

  ASSERT_EQ(sampler.retainedCount(), 1u);
  EXPECT_EQ(sampler.retained()[0]->rootName, "episode:slow");
  EXPECT_EQ(sampler.retained()[0]->reason, "slow");
}

TEST_F(SamplerFixture, ReservoirKeepsExactlyTheSlowestK) {
  obs::SamplerConfig config = base();
  config.slowestReservoir = 2;
  obs::TraceSampler sampler(s, config);
  // Offered slow-fast-slower: the surviving pair must be the true top-2
  // regardless of the order completions arrive in.
  emit(sampler, "e:a", "w", sim::msec(1), sim::msec(301));
  emit(sampler, "e:b", "w", sim::msec(1), sim::msec(11));
  emit(sampler, "e:c", "w", sim::msec(1), sim::msec(501));
  sampler.flush();
  emit(sampler, "e:d", "w", sim::msec(1), sim::msec(401));
  sampler.flush();

  ASSERT_EQ(sampler.retainedCount(), 2u);
  std::vector<std::string> names;
  for (const obs::SampledTrace* t : sampler.retained()) {
    EXPECT_EQ(t->reason, "reservoir");
    names.push_back(t->rootName);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"e:c", "e:d"}));
  EXPECT_EQ(sampler.reservoirEvictions(), 2u);
  EXPECT_EQ(sampler.droppedTraces(), 2u);  // evictions fold into stats

  // The canonical list and canonicalTraceId agree: index i is id i + 1 (the
  // Chrome export numbers traces by index, exemplars resolve by id).
  const std::vector<const obs::SampledTrace*>& canonical = sampler.canonical();
  ASSERT_EQ(canonical.size(), 2u);
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    EXPECT_EQ(sampler.canonicalTraceId(canonical[i]->provisionalTraceId),
              std::optional<std::uint64_t>(i + 1));
  }
}

TEST_F(SamplerFixture, BaselineDrawIsSeededPerTraceKey) {
  obs::SamplerConfig config = base();
  config.baselineProbability = 1.0;
  obs::TraceSampler sampler(s, config);
  emit(sampler, "episode:fps", "work", sim::msec(1), sim::msec(2));
  sampler.flush();
  ASSERT_EQ(sampler.retainedCount(), 1u);
  EXPECT_EQ(sampler.retained()[0]->reason, "baseline");
}

TEST_F(SamplerFixture, DroppedTracesFoldIntoPrivateStats) {
  obs::TraceSampler sampler(s, base());
  emit(sampler, "episode:fps", "work", sim::msec(1), sim::msec(3));
  sampler.flush();

  EXPECT_EQ(sampler.retainedCount(), 0u);
  EXPECT_EQ(sampler.droppedTraces(), 1u);
  const sim::Histogram* h =
      sampler.stats().histogram("sampler.dropped_duration_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  // The sampler's registry is private: arming it adds nothing to the
  // simulation's own metrics, so digests are unchanged.
  EXPECT_EQ(s.metrics().allHistograms().count("sampler.dropped_duration_us"),
            0u);
}

TEST_F(SamplerFixture, CompletionLingerLetsLateSpansJoin) {
  obs::SamplerConfig config = base();
  config.completionLinger = sim::msec(50);
  obs::TraceSampler sampler(s, config);

  const sim::TraceContext ctx =
      sampler.beginTrace(sim::msec(1), "episode:fps", "test-host");
  sampler.instant(sim::msec(1), ctx, "fault-localization", "dm");
  sampler.endSpan(sim::msec(10), ctx);

  s.runUntil(sim::msec(20));  // root closed 10ms ago: still lingering
  sampler.flush();
  EXPECT_EQ(sampler.retainedCount(), 0u);

  // A domain manager's diagnosis arrives after the episode cleared.
  const sim::TraceContext late =
      sampler.beginSpan(sim::msec(25), ctx, "diagnose", "dm");
  sampler.endSpan(sim::msec(30), late);

  s.runUntil(sim::msec(100));  // past the linger: graduates complete
  sampler.flush();
  ASSERT_EQ(sampler.retainedCount(), 1u);
  const obs::SampledTrace* t = sampler.retained()[0];
  EXPECT_TRUE(t->complete);
  EXPECT_EQ(t->spans.size(), 3u);
  EXPECT_EQ(t->spans.back().name, "diagnose");
  EXPECT_EQ(sampler.orphanRecords(), 0u);
}

TEST_F(SamplerFixture, FinalFlushResolvesLingeringCompleteAndOpenTraces) {
  obs::SamplerConfig config = base();
  config.completionLinger = sim::sec(3600);  // nothing graduates on its own
  obs::TraceSampler sampler(s, config);

  emit(sampler, "contract:rejected", "detail", sim::msec(1), sim::msec(2));
  const sim::TraceContext open =
      sampler.beginTrace(sim::msec(3), "fault-localization", "dm");
  (void)open;  // never closed: a shutdown artifact

  sampler.finalFlush();
  ASSERT_EQ(sampler.retainedCount(), 2u);
  for (const obs::SampledTrace* t : sampler.retained()) {
    if (t->rootName == "contract:rejected") {
      EXPECT_TRUE(t->complete) << "linger must not mark closed traces open";
    } else {
      EXPECT_FALSE(t->complete);
    }
  }
}

TEST_F(SamplerFixture, PendingCapEvictsButHonorsFiredTriggers) {
  obs::SamplerConfig config = base();
  config.maxPendingTraces = 2;
  obs::TraceSampler sampler(s, config);

  // Three never-closed traces; the first (oldest) carries a fired trigger.
  const sim::TraceContext first =
      sampler.beginTrace(sim::msec(1), "contract:degraded", "agent");
  sampler.beginTrace(sim::msec(2), "episode:b", "h1");
  sampler.beginTrace(sim::msec(3), "episode:c", "h2");
  sampler.flush();

  EXPECT_EQ(sampler.evictedPending(), 1u);
  // Evicted under memory pressure, but the fault trace survives (incomplete)
  // instead of vanishing.
  ASSERT_EQ(sampler.retainedCount(), 1u);
  EXPECT_EQ(sampler.retained()[0]->rootName, "contract:degraded");
  EXPECT_FALSE(sampler.retained()[0]->complete);

  // Records for the evicted trace no longer have a home.
  sampler.endSpan(sim::msec(4), first);
  sampler.flush();
  EXPECT_EQ(sampler.orphanRecords(), 1u);
}

TEST_F(SamplerFixture, RetainedSpanCapEvictsOldestRetained) {
  obs::SamplerConfig config = base();
  config.maxRetainedSpans = 3;
  obs::TraceSampler sampler(s, config);
  emit(sampler, "contract:a", "d", sim::msec(1), sim::msec(2));  // 2 spans
  emit(sampler, "contract:b", "d", sim::msec(3), sim::msec(4));  // 2 spans
  sampler.flush();

  EXPECT_EQ(sampler.evictedRetained(), 1u);
  ASSERT_EQ(sampler.retainedCount(), 1u);
  EXPECT_EQ(sampler.retained()[0]->rootName, "contract:b");
  EXPECT_LE(sampler.retainedSpanCount(), 3u);
}

TEST_F(SamplerFixture, FullRecordBufferDropsAndCounts) {
  obs::SamplerConfig config = base();
  config.maxRecordsPerShard = 3;
  obs::TraceSampler sampler(s, config);
  const sim::TraceContext ctx =
      sampler.beginTrace(sim::msec(1), "episode:fps", "h");
  for (int i = 0; i < 5; ++i) sampler.instant(sim::msec(2), ctx, "tick", "h");
  EXPECT_GT(sampler.droppedRecords(), 0u);
}

// ---- Shard-safety gate ---------------------------------------------------

// A serial-only observer: keeps the SpanObserver default shardSafe() ==
// false and records nothing.
struct SerialOnlyObserver final : sim::SpanObserver {
  sim::TraceContext beginTrace(sim::SimTime, std::string_view,
                               std::string_view) override {
    return {};
  }
  sim::TraceContext beginSpan(sim::SimTime, const sim::TraceContext&,
                              std::string_view, std::string_view) override {
    return {};
  }
  void endSpan(sim::SimTime, const sim::TraceContext&) override {}
  void annotate(const sim::TraceContext&, std::string_view,
                std::string_view) override {}
  sim::TraceContext instant(sim::SimTime, const sim::TraceContext&,
                            std::string_view, std::string_view) override {
    return {};
  }
};

TEST(SamplerSharding, SpanStoreObserverIsRejectedInShardedRuns) {
  apps::CityConfig config;
  config.tiers = 2;
  config.racks = 2;
  config.hostsPerRack = 2;
  config.shards = 2;
  apps::City city(config);
  SerialOnlyObserver store;
  city.sim.setObserver(&store);
  EXPECT_THROW(city.run(sim::msec(100)), std::logic_error);
  city.sim.setObserver(nullptr);
  EXPECT_NO_THROW(city.run(sim::msec(100)));
}

TEST(SamplerSharding, TraceSamplerStaysAttachedThroughShardedRuns) {
  apps::CityConfig config;
  config.tiers = 2;
  config.racks = 2;
  config.hostsPerRack = 2;
  config.shards = 2;
  config.sampling = true;
  apps::City city(config);
  EXPECT_NO_THROW(city.run(sim::sec(1)));
  EXPECT_GT(city.sampler->totalSpans(), 0u);
}

// ---- City-level determinism ---------------------------------------------

std::string sampledCityExport(std::uint64_t seed, unsigned shards,
                              unsigned workers) {
  apps::CityConfig config;
  config.seed = seed;
  config.tiers = 2;
  config.racks = 2;
  config.hostsPerRack = 2;
  config.processesPerHost = 2;
  config.shards = shards;
  config.workers = workers;
  config.sampling = true;
  config.samplerConfig.slowestReservoir = 4;
  config.samplerConfig.baselineProbability = 0.05;
  config.samplerConfig.slowThreshold = sim::msec(900);
  apps::City city(config);
  // Fixed-time flush boundaries, same at every shard/worker count.
  for (int i = 0; i < 6; ++i) city.run(sim::msec(500));
  city.finishSampling();
  return obs::chromeTraceJson(*city.sampler);
}

TEST(SamplingDeterminism, ExportIsInvariantAcrossShardAndWorkerCounts) {
  for (const std::uint64_t seed : {7u, 20260808u}) {
    const std::string serial = sampledCityExport(seed, 0, 1);
    ASSERT_NE(serial.find("episode:frame_rate"), std::string::npos);
    EXPECT_EQ(sampledCityExport(seed, 2, 1), serial) << "seed " << seed;
    EXPECT_EQ(sampledCityExport(seed, 4, 1), serial) << "seed " << seed;
    EXPECT_EQ(sampledCityExport(seed, 4, 2), serial) << "seed " << seed;
  }
}

TEST(SamplingDeterminism, SeedsProduceDistinctRetainedSets) {
  EXPECT_NE(sampledCityExport(7, 2, 1), sampledCityExport(8, 2, 1));
}

TEST(SamplingDeterminism, ProvisionalContextsSerializeFixedWidth) {
  sim::Simulation s{1};
  obs::TraceSampler sampler(s);
  const sim::TraceContext a =
      sampler.beginTrace(sim::msec(1), "episode:a", "h");
  const sim::TraceContext b = sampler.beginSpan(sim::msec(1), a, "child", "h");
  // 15-digit ids at every shard count: serialized contexts cost the same
  // bytes on the wire, so payload-driven transmission times cannot diverge.
  EXPECT_EQ(std::to_string(a.traceId).size(), 15u);
  EXPECT_EQ(std::to_string(b.spanId).size(), 15u);
  EXPECT_EQ(a.serialize().size(), b.serialize().size());
}

}  // namespace
}  // namespace softqos
