// Streaming telemetry plane: histogram deltas and the wire codec, windowed
// rollups, host->domain aggregation, SLO burn-rate alerting, and the
// end-to-end loop where an SLO breach asserts a fact that fires an existing
// policy rule. Closes with a chaos soak replaying byte-identically with
// rollups, telemetry RPCs and the fault injector all armed at once.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "apps/testbed.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "sim/rollup.hpp"
#include "sim/simulation.hpp"

namespace softqos {
namespace {

// ---- Histogram delta / threshold primitives ----

TEST(HistogramDelta, DeltaSinceSubtractsBucketwise) {
  sim::Histogram h;
  h.add(10.0);
  h.add(100.0);
  const sim::Histogram snapshot = h;
  h.add(1000.0);
  h.add(1000.0);

  const sim::Histogram delta = h.deltaSince(snapshot);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_DOUBLE_EQ(delta.sum(), 2000.0);
  // Only the new samples' buckets are occupied.
  EXPECT_EQ(delta.countAbove(500.0), 2u);
  EXPECT_EQ(delta.countAbove(5000.0), 0u);
}

TEST(HistogramDelta, DeltaSinceEmptyBaselineIsVerbatim) {
  sim::Histogram h;
  h.add(3.5);
  h.add(7.25);
  const sim::Histogram delta = h.deltaSince(sim::Histogram{});
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_DOUBLE_EQ(delta.min(), 3.5);
  EXPECT_DOUBLE_EQ(delta.max(), 7.25);
  EXPECT_DOUBLE_EQ(delta.sum(), 10.75);
}

TEST(HistogramDelta, CountAboveUsesBucketGranularity) {
  sim::Histogram h;
  for (int i = 0; i < 10; ++i) h.add(1.0);
  for (int i = 0; i < 5; ++i) h.add(1e6);
  EXPECT_EQ(h.countAbove(1e5), 5u);
  EXPECT_EQ(h.countAbove(0.0), 15u);
  EXPECT_EQ(h.countAbove(1e9), 0u);
}

// ---- Wire codec ----

TEST(HistogramCodec, RoundTripsExactly) {
  sim::Histogram h;
  h.add(1.0);
  h.add(12345.678);
  h.add(0.25);
  h.add(9e9);

  const std::string encoded = sim::encodeHistogram(h);
  const auto decoded = sim::decodeHistogram(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->count(), h.count());
  EXPECT_DOUBLE_EQ(decoded->sum(), h.sum());
  EXPECT_DOUBLE_EQ(decoded->min(), h.min());
  EXPECT_DOUBLE_EQ(decoded->max(), h.max());
  EXPECT_EQ(decoded->buckets(), h.buckets());
  // Re-encoding the decoded histogram is byte-identical (canonical form).
  EXPECT_EQ(sim::encodeHistogram(*decoded), encoded);
}

TEST(HistogramCodec, EmptyHistogramRoundTrips) {
  const auto decoded = sim::decodeHistogram(sim::encodeHistogram({}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->count(), 0u);
}

TEST(HistogramCodec, RejectsMalformedText) {
  EXPECT_FALSE(sim::decodeHistogram("").has_value());
  EXPECT_FALSE(sim::decodeHistogram("not,a,histogram").has_value());
  EXPECT_FALSE(sim::decodeHistogram("2,3.0,1.0,2.0,5:1").has_value())
      << "bucket total != count must be rejected";
  EXPECT_FALSE(sim::decodeHistogram("1,1.0,1.0,1.0,99999:1").has_value())
      << "absurd bucket index must be rejected";
  EXPECT_FALSE(sim::decodeHistogram("1, 1.0,1.0,1.0,0:1").has_value())
      << "whitespace is not part of a number";
  EXPECT_FALSE(sim::decodeHistogram("1,0x10,1.0,1.0,0:1").has_value());
  EXPECT_FALSE(sim::decodeHistogram("1,1e400,1.0,1.0,0:1").has_value());
}

TEST(HistogramCodec, ExemplarsRoundTripAndStayOptional) {
  sim::Histogram h;
  h.addWithExemplar(100.0, 42, sim::msec(5));
  h.addWithExemplar(5000.0, 43, sim::msec(6));
  h.add(100.0);  // plain sample in an exemplared bucket

  const std::string encoded = sim::encodeHistogram(h);
  EXPECT_NE(encoded.find(",x"), std::string::npos);
  const auto decoded = sim::decodeHistogram(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->buckets(), h.buckets());
  ASSERT_EQ(decoded->exemplars().size(), 2u);
  for (const auto& [idx, ex] : h.exemplars()) {
    const auto it = decoded->exemplars().find(idx);
    ASSERT_NE(it, decoded->exemplars().end());
    EXPECT_EQ(it->second.traceId, ex.traceId);
    EXPECT_DOUBLE_EQ(it->second.value, ex.value);
    EXPECT_EQ(it->second.when, ex.when);
  }
  // Canonical form: re-encoding is byte-identical.
  EXPECT_EQ(sim::encodeHistogram(*decoded), encoded);

  // Exemplar-free histograms pay nothing: same bytes as the v1 codec.
  sim::Histogram plain;
  plain.add(100.0);
  plain.addWithExemplar(200.0, /*traceId=*/0, sim::msec(1));  // 0 = plain
  EXPECT_EQ(sim::encodeHistogram(plain).find(",x"), std::string::npos);
}

TEST(HistogramCodec, RejectsMalformedExemplars) {
  // Baseline without exemplars parses.
  ASSERT_TRUE(sim::decodeHistogram("1,100,100,100,27:1").has_value());
  EXPECT_FALSE(sim::decodeHistogram("1,100,100,100,27:1,x27:0:5000:100")
                   .has_value())
      << "exemplar with trace id 0 must be rejected";
  EXPECT_FALSE(sim::decodeHistogram("1,100,100,100,27:1,x50:42:5000:100")
                   .has_value())
      << "exemplar on an empty bucket must be rejected";
  EXPECT_FALSE(sim::decodeHistogram("1,100,100,100,27:1,x99999:42:5000:100")
                   .has_value())
      << "absurd exemplar bucket index must be rejected";
  EXPECT_FALSE(
      sim::decodeHistogram("1,100,100,100,27:1,x27:42:9999999999999999999:100")
          .has_value())
      << "an exemplar time past int64 must be rejected, not wrapped";
  const auto minWhen =
      sim::decodeHistogram("1,100,100,100,27:1,x27:42:-9223372036854775808:100");
  ASSERT_TRUE(minWhen.has_value());
  EXPECT_EQ(minWhen->exemplars().at(27).when,
            std::numeric_limits<std::int64_t>::min());
}

// ---- Windowed rollups ----

TEST(Rollup, CutsCounterAndHistogramDeltasPerWindow) {
  sim::Simulation simulation(1);
  sim::MetricRegistry registry;
  sim::RollupConfig cfg;
  cfg.window = sim::sec(1);
  sim::RollupWindow rollup(simulation, registry, cfg);
  rollup.trackCounter("work.items");
  rollup.trackHistogram("work.latency_us");

  sim::Counter items = registry.counterHandle("work.items");
  sim::HistogramHandle latency = registry.histogramHandle("work.latency_us");

  items.add(3);
  latency.record(100.0);
  latency.record(200.0);
  simulation.after(sim::sec(1), [&] { rollup.tick(); });
  simulation.runUntil(sim::sec(1));

  ASSERT_EQ(rollup.windows().size(), 1u);
  EXPECT_EQ(rollup.latest()->counter("work.items"), 3);
  EXPECT_EQ(rollup.latest()->histogram("work.latency_us")->count(), 2u);

  // Second window sees only what happened after the first tick.
  items.add(5);
  latency.record(400.0);
  simulation.after(sim::sec(1), [&] { rollup.tick(); });
  simulation.runUntil(sim::sec(2));

  ASSERT_EQ(rollup.windows().size(), 2u);
  const sim::RollupWindow::Window& w = *rollup.latest();
  EXPECT_EQ(w.start, sim::sec(1));
  EXPECT_EQ(w.end, sim::sec(2));
  EXPECT_EQ(w.counter("work.items"), 5);
  EXPECT_EQ(w.histogram("work.latency_us")->count(), 1u);
  EXPECT_DOUBLE_EQ(w.histogram("work.latency_us")->sum(), 400.0);

  // Cross-window folds.
  EXPECT_EQ(rollup.counterSum("work.items"), 8);
  EXPECT_EQ(rollup.mergedHistogram("work.latency_us").count(), 3u);
  EXPECT_EQ(rollup.counterSum("work.items", sim::sec(1)), 5);
}

TEST(Rollup, RingDropsOldestPastMaxWindows) {
  sim::Simulation simulation(1);
  sim::MetricRegistry registry;
  sim::RollupConfig cfg;
  cfg.maxWindows = 3;
  sim::RollupWindow rollup(simulation, registry, cfg);
  rollup.trackCounter("c");
  sim::Counter c = registry.counterHandle("c");
  for (int i = 1; i <= 5; ++i) {
    c.add(i);
    simulation.after(sim::sec(1), [&] { rollup.tick(); });
    simulation.runUntil(sim::sec(i));
  }
  EXPECT_EQ(rollup.ticks(), 5u);
  ASSERT_EQ(rollup.windows().size(), 3u);
  // Windows 3, 4, 5 survive; the sum reflects only the retained ring.
  EXPECT_EQ(rollup.counterSum("c"), 3 + 4 + 5);
}

// ---- Snapshot wire format + aggregation ----

TEST(Telemetry, SnapshotRoundTripsAndAggregates) {
  sim::Simulation simulation(1);
  sim::MetricRegistry registry;
  sim::RollupWindow rollup(simulation, registry, {});
  rollup.trackCounter("hm.reports");
  rollup.trackHistogram("qos.reaction_latency_us");
  sim::Counter reports = registry.counterHandle("hm.reports");
  sim::HistogramHandle reaction =
      registry.histogramHandle("qos.reaction_latency_us");
  reports.add(7);
  reaction.record(1500.0);
  reaction.record(2500.0);
  simulation.after(sim::sec(1), [&] { rollup.tick(); });
  simulation.runUntil(sim::sec(1));

  const sim::TelemetrySnapshot snap =
      sim::TelemetrySnapshot::fromWindow("host-a", *rollup.latest());
  const auto parsed = sim::TelemetrySnapshot::parse(snap.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->source, "host-a");
  EXPECT_EQ(parsed->windowStart, 0);
  EXPECT_EQ(parsed->windowEnd, sim::sec(1));
  ASSERT_EQ(parsed->counters.size(), 1u);
  EXPECT_EQ(parsed->counters[0].second, 7);
  ASSERT_EQ(parsed->histograms.size(), 1u);
  EXPECT_EQ(parsed->histograms[0].second.count(), 2u);

  EXPECT_FALSE(sim::TelemetrySnapshot::parse("").has_value());
  EXPECT_FALSE(sim::TelemetrySnapshot::parse("v2\nsrc=x\nwin=0,1").has_value());
  EXPECT_FALSE(sim::TelemetrySnapshot::parse("v1\nwin=0,1").has_value());
  // Window bounds are strict int64: an overflow is rejected rather than
  // wrapped, and INT64_MIN parses without negating a signed value.
  EXPECT_FALSE(
      sim::TelemetrySnapshot::parse("v1\nsrc=x\nwin=9999999999999999999,0")
          .has_value());
  const auto minWindow =
      sim::TelemetrySnapshot::parse("v1\nsrc=x\nwin=-9223372036854775808,0");
  ASSERT_TRUE(minWindow.has_value());
  EXPECT_EQ(minWindow->windowStart, std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(sim::TelemetrySnapshot::parse("v1\nsrc=x\nwin=0,1\nc=a,4x")
                   .has_value());

  // Two sources merge: histograms fold bucket-wise, counters sum.
  sim::TelemetryAggregator agg;
  agg.ingest(*parsed);
  sim::TelemetrySnapshot other = *parsed;
  other.source = "host-b";
  agg.ingest(other);
  EXPECT_EQ(agg.snapshotsIngested(), 2u);
  EXPECT_EQ(agg.sourcesSeen(), 2u);
  EXPECT_EQ(agg.counterTotals().at("hm.reports"), 14);
  EXPECT_EQ(agg.mergedHistograms().at("qos.reaction_latency_us").count(), 4u);

  const std::string json = obs::domainMetricsJson(agg);
  EXPECT_NE(json.find("\"host-a\""), std::string::npos);
  EXPECT_NE(json.find("qos.reaction_latency_us"), std::string::npos);
}

// ---- Tree aggregation: tiers never change the root's view ----

// Property: routing the same per-host windows through 1, 2, or 3 tiers of
// aggregators (each tier republishing only its cutDelta) yields
// bucket-identical merged histograms and equal counter totals at the root.
// This is the correctness contract of the domain-of-domains tree — histogram
// merging is associative and each sample crosses every tier exactly once.
TEST(Telemetry, TreeDepthNeverChangesTheRootAggregate) {
  constexpr int kHosts = 8;
  constexpr int kWindows = 4;

  // Deterministic per-host, per-window samples (a tiny LCG; no global RNG).
  auto sampleValue = [](int host, int window, int i) {
    std::uint32_t x = static_cast<std::uint32_t>(
        2654435761u * static_cast<std::uint32_t>(host * 97 + window * 13 + i + 1));
    return 50.0 + static_cast<double>(x % 100000) / 17.0;
  };
  auto hostSnapshot = [&](int host, int window) {
    sim::TelemetrySnapshot snap;
    snap.source = "host-" + std::to_string(host);
    snap.windowStart = window * sim::sec(1);
    snap.windowEnd = (window + 1) * sim::sec(1);
    sim::Histogram lat;
    for (int i = 0; i < 5 + (host + window) % 4; ++i) {
      lat.add(sampleValue(host, window, i));
    }
    snap.histograms.emplace_back("qos.reaction_latency_us", lat);
    snap.counters.emplace_back("hm.reports",
                               static_cast<std::int64_t>(3 + host + window));
    return snap;
  };

  // 1-tier: every host reports straight to the root.
  sim::TelemetryAggregator flatRoot;
  for (int w = 0; w < kWindows; ++w) {
    for (int h = 0; h < kHosts; ++h) flatRoot.ingest(hostSnapshot(h, w));
  }

  // 2-tier: two mid aggregators of four hosts each; after every window each
  // mid publishes only the delta since its previous publish.
  sim::TelemetryAggregator mids[2];
  sim::TelemetryAggregator twoTierRoot;
  for (int w = 0; w < kWindows; ++w) {
    for (int h = 0; h < kHosts; ++h) mids[h / 4].ingest(hostSnapshot(h, w));
    for (int m = 0; m < 2; ++m) {
      twoTierRoot.ingest(mids[m].cutDelta("mid-" + std::to_string(m),
                                          w * sim::sec(1),
                                          (w + 1) * sim::sec(1)));
    }
  }

  // 3-tier: four racks of two hosts -> two clusters of two racks -> root.
  sim::TelemetryAggregator racks[4];
  sim::TelemetryAggregator clusters[2];
  sim::TelemetryAggregator threeTierRoot;
  for (int w = 0; w < kWindows; ++w) {
    for (int h = 0; h < kHosts; ++h) racks[h / 2].ingest(hostSnapshot(h, w));
    for (int r = 0; r < 4; ++r) {
      clusters[r / 2].ingest(racks[r].cutDelta("rack-" + std::to_string(r),
                                               w * sim::sec(1),
                                               (w + 1) * sim::sec(1)));
    }
    for (int c = 0; c < 2; ++c) {
      threeTierRoot.ingest(clusters[c].cutDelta("cluster-" + std::to_string(c),
                                                w * sim::sec(1),
                                                (w + 1) * sim::sec(1)));
    }
  }

  // Bucket-identical: count, sum, and every occupied bucket (the wire codec
  // spells them all out). min/max are excluded — delta slices estimate them
  // at bucket granularity by design — but must stay within one bucket
  // (~19%) of the exact figures.
  auto bucketSignature = [](const sim::Histogram& h) {
    std::string enc = sim::encodeHistogram(h);
    // "count,sum,min,max[,idx:cnt...]" -> drop fields 3 and 4.
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (pos <= enc.size()) {
      const std::size_t comma = enc.find(',', pos);
      fields.push_back(enc.substr(pos, comma - pos));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    std::string out = fields[0] + "," + fields[1];
    for (std::size_t i = 4; i < fields.size(); ++i) out += "," + fields[i];
    return out;
  };
  for (const sim::TelemetryAggregator* root : {&twoTierRoot, &threeTierRoot}) {
    ASSERT_EQ(root->mergedHistograms().size(),
              flatRoot.mergedHistograms().size());
    for (const auto& [name, flat] : flatRoot.mergedHistograms()) {
      const auto it = root->mergedHistograms().find(name);
      ASSERT_NE(it, root->mergedHistograms().end()) << name;
      EXPECT_EQ(bucketSignature(it->second), bucketSignature(flat)) << name;
      EXPECT_NEAR(it->second.min(), flat.min(), 0.19 * flat.min()) << name;
      EXPECT_NEAR(it->second.max(), flat.max(), 0.19 * flat.max()) << name;
    }
    EXPECT_EQ(root->counterTotals(), flatRoot.counterTotals());
  }

  // The deeper trees also ingest fewer, coarser frames: 8 per window flat
  // vs 2 per window at the tiered roots — the fan-out, not the host count.
  EXPECT_EQ(flatRoot.snapshotsIngested(), kWindows * kHosts);
  EXPECT_EQ(twoTierRoot.snapshotsIngested(), kWindows * 2u);
  EXPECT_EQ(threeTierRoot.snapshotsIngested(), kWindows * 2u);
}

TEST(Telemetry, ExemplarMergeIsAssociativeAcrossTierDepths) {
  constexpr int kHosts = 8;
  constexpr int kWindows = 3;

  // Deterministic per-sample values, trace ids and timestamps: the winning
  // exemplar per bucket (newest-wins) must be a pure function of the sample
  // set, not of the aggregation tree shape.
  auto sampleValue = [](int host, int window, int i) {
    std::uint32_t x = static_cast<std::uint32_t>(
        2654435761u * static_cast<std::uint32_t>(host * 97 + window * 13 + i + 1));
    return 50.0 + static_cast<double>(x % 100000) / 17.0;
  };
  auto hostSnapshot = [&](int host, int window) {
    sim::TelemetrySnapshot snap;
    snap.source = "host-" + std::to_string(host);
    snap.windowStart = window * sim::sec(1);
    snap.windowEnd = (window + 1) * sim::sec(1);
    sim::Histogram lat;
    for (int i = 0; i < 5 + (host + window) % 4; ++i) {
      const auto traceId = static_cast<std::uint64_t>(
          1 + host * 1000 + window * 100 + i);
      lat.addWithExemplar(sampleValue(host, window, i), traceId,
                          window * sim::sec(1) + sim::msec(host * 10 + i));
    }
    snap.histograms.emplace_back("qos.reaction_latency_us", lat);
    return snap;
  };

  sim::TelemetryAggregator flatRoot;
  for (int w = 0; w < kWindows; ++w) {
    for (int h = 0; h < kHosts; ++h) flatRoot.ingest(hostSnapshot(h, w));
  }

  sim::TelemetryAggregator mids[2];
  sim::TelemetryAggregator twoTierRoot;
  for (int w = 0; w < kWindows; ++w) {
    for (int h = 0; h < kHosts; ++h) mids[h / 4].ingest(hostSnapshot(h, w));
    for (int m = 0; m < 2; ++m) {
      twoTierRoot.ingest(mids[m].cutDelta("mid-" + std::to_string(m),
                                          w * sim::sec(1),
                                          (w + 1) * sim::sec(1)));
    }
  }

  sim::TelemetryAggregator racks[4];
  sim::TelemetryAggregator clusters[2];
  sim::TelemetryAggregator threeTierRoot;
  for (int w = 0; w < kWindows; ++w) {
    for (int h = 0; h < kHosts; ++h) racks[h / 2].ingest(hostSnapshot(h, w));
    for (int r = 0; r < 4; ++r) {
      clusters[r / 2].ingest(racks[r].cutDelta("rack-" + std::to_string(r),
                                               w * sim::sec(1),
                                               (w + 1) * sim::sec(1)));
    }
    for (int c = 0; c < 2; ++c) {
      threeTierRoot.ingest(clusters[c].cutDelta("cluster-" + std::to_string(c),
                                                w * sim::sec(1),
                                                (w + 1) * sim::sec(1)));
    }
  }

  const auto& flat =
      flatRoot.mergedHistograms().at("qos.reaction_latency_us");
  ASSERT_FALSE(flat.exemplars().empty());
  for (const sim::TelemetryAggregator* root : {&twoTierRoot, &threeTierRoot}) {
    const auto& tiered =
        root->mergedHistograms().at("qos.reaction_latency_us");
    ASSERT_EQ(tiered.exemplars().size(), flat.exemplars().size());
    for (const auto& [idx, ex] : flat.exemplars()) {
      const auto it = tiered.exemplars().find(idx);
      ASSERT_NE(it, tiered.exemplars().end()) << "bucket " << idx;
      EXPECT_EQ(it->second.traceId, ex.traceId) << "bucket " << idx;
      EXPECT_EQ(it->second.when, ex.when) << "bucket " << idx;
      EXPECT_DOUBLE_EQ(it->second.value, ex.value) << "bucket " << idx;
    }
  }
}

TEST(Telemetry, CutDeltaOmitsQuietMetricsAndResumesAfterGaps) {
  sim::TelemetryAggregator mid;
  sim::TelemetrySnapshot snap;
  snap.source = "host-a";
  snap.windowEnd = sim::sec(1);
  sim::Histogram lat;
  lat.add(100.0);
  snap.histograms.emplace_back("lat", lat);
  snap.counters.emplace_back("n", 5);
  mid.ingest(snap);

  sim::TelemetrySnapshot first = mid.cutDelta("mid", 0, sim::sec(1));
  ASSERT_EQ(first.histograms.size(), 1u);
  EXPECT_EQ(first.histograms[0].second.count(), 1u);
  ASSERT_EQ(first.counters.size(), 1u);
  EXPECT_EQ(first.counters[0].second, 5);

  // Nothing new ingested: the next cut must be empty, not a replay.
  sim::TelemetrySnapshot quiet = mid.cutDelta("mid", sim::sec(1), sim::sec(2));
  EXPECT_TRUE(quiet.histograms.empty());
  EXPECT_TRUE(quiet.counters.empty());

  // New samples after the gap resume from the post-cut baseline.
  snap.windowStart = sim::sec(2);
  snap.windowEnd = sim::sec(3);
  mid.ingest(snap);
  sim::TelemetrySnapshot resumed = mid.cutDelta("mid", sim::sec(2), sim::sec(3));
  ASSERT_EQ(resumed.counters.size(), 1u);
  EXPECT_EQ(resumed.counters[0].second, 5);
  ASSERT_EQ(resumed.histograms.size(), 1u);
  EXPECT_EQ(resumed.histograms[0].second.count(), 1u);
}

// ---- SLO burn-rate alerting ----

TEST(Slo, BreachAndRecoveryAreEdgeTriggered) {
  sim::Simulation simulation(1);
  sim::MetricRegistry registry;
  sim::RollupWindow rollup(simulation, registry, {});
  rollup.trackHistogram("lat");
  sim::HistogramHandle lat = registry.histogramHandle("lat");

  obs::SloObjective objective;
  objective.name = "lat-p99";
  objective.kind = obs::SloObjective::Kind::kLatencyQuantile;
  objective.metric = "lat";
  objective.quantile = 99.0;
  objective.threshold = 1000.0;
  objective.window = sim::sec(10);
  objective.shortWindow = sim::sec(2);
  objective.fastBurn = 2.0;
  objective.slowBurn = 1.0;

  obs::SloTracker tracker;
  tracker.addObjective(objective);
  int breaches = 0;
  int recoveries = 0;
  tracker.setHandlers(
      [&](const obs::SloObjective&, const obs::SloStatus&) { ++breaches; },
      [&](const obs::SloObjective&, const obs::SloStatus&) { ++recoveries; });

  // Window 1: everything over threshold -> burn far above both gates.
  for (int i = 0; i < 20; ++i) lat.record(50000.0);
  simulation.after(sim::sec(1), [&] {
    rollup.tick();
    tracker.evaluate(rollup, simulation.now());
  });
  simulation.runUntil(sim::sec(1));
  EXPECT_EQ(breaches, 1);
  EXPECT_TRUE(tracker.entries()[0].status.breached);
  EXPECT_EQ(tracker.entries()[0].status.budgetRemaining, 0.0);

  // Re-evaluating while still burning must not re-fire the edge.
  for (int i = 0; i < 20; ++i) lat.record(50000.0);
  simulation.after(sim::sec(1), [&] {
    rollup.tick();
    tracker.evaluate(rollup, simulation.now());
  });
  simulation.runUntil(sim::sec(2));
  EXPECT_EQ(breaches, 1);

  // Healthy windows push the old samples out of the short window; once the
  // fast burn drops below its gate the objective recovers (one edge).
  for (int tick = 3; tick <= 12; ++tick) {
    for (int i = 0; i < 500; ++i) lat.record(10.0);
    simulation.after(sim::sec(1), [&] {
      rollup.tick();
      tracker.evaluate(rollup, simulation.now());
    });
    simulation.runUntil(sim::sec(tick));
  }
  EXPECT_EQ(recoveries, 1);
  EXPECT_FALSE(tracker.entries()[0].status.breached);
  EXPECT_EQ(breaches, 1);
}

TEST(Slo, EventRateObjectiveBurnsAgainstAllowance) {
  sim::Simulation simulation(1);
  sim::MetricRegistry registry;
  sim::RollupWindow rollup(simulation, registry, {});
  rollup.trackCounter("events");
  sim::Counter events = registry.counterHandle("events");

  obs::SloObjective objective;
  objective.name = "rate";
  objective.kind = obs::SloObjective::Kind::kEventRate;
  objective.metric = "events";
  objective.threshold = 2.0;  // two events per second allowed
  objective.window = sim::sec(10);
  objective.shortWindow = sim::sec(2);
  objective.fastBurn = 2.0;
  objective.slowBurn = 1.0;

  obs::SloTracker tracker;
  tracker.addObjective(objective);

  // 10 events in a 1 s window against an allowance of 2 -> burn 5.
  events.add(10);
  simulation.after(sim::sec(1), [&] {
    rollup.tick();
    tracker.evaluate(rollup, simulation.now());
  });
  simulation.runUntil(sim::sec(1));
  EXPECT_DOUBLE_EQ(tracker.entries()[0].status.shortBurn, 5.0);
  EXPECT_TRUE(tracker.entries()[0].status.breached);
  EXPECT_EQ(tracker.breachedCount(), 1u);
}

// ---- End to end: host managers publish, the domain manager aggregates ----

TEST(TelemetryE2E, HostWindowsReachTheDomainManager) {
  apps::TestbedConfig cfg;
  cfg.seed = 11;
  cfg.telemetryInterval = sim::sec(1);
  apps::Testbed tb(cfg);
  tb.startVideo();
  tb.clientLoad.setWorkers(6);
  tb.clientHost.loadSampler().prime(7.0);
  tb.sim.runUntil(sim::sec(20));

  ASSERT_TRUE(tb.clientHm->telemetryEnabled());
  ASSERT_NE(tb.clientHm->rollup(), nullptr);
  EXPECT_GE(tb.clientHm->rollup()->ticks(), 19u);
  EXPECT_GE(tb.clientHm->telemetryPublishes(), 19u);
  EXPECT_GE(tb.serverHm->telemetryPublishes(), 19u);

  // Both hosts' windows arrived and merged into domain-wide distributions.
  const sim::TelemetryAggregator& agg = tb.dm->telemetry();
  EXPECT_EQ(agg.sourcesSeen(), 2u);
  EXPECT_GE(agg.snapshotsIngested(), 38u);
  EXPECT_GT(agg.counterTotals().at("hm.reports"), 0);
  // The acceptance bar: at least one domain-level merged histogram with
  // samples from the per-host rollups.
  const auto merged = agg.mergedHistograms();
  std::uint64_t samples = 0;
  for (const auto& [name, h] : merged) samples += h.count();
  EXPECT_GT(samples, 0u);
  // Wall-clock metrics must never cross the wire (determinism invariant).
  EXPECT_EQ(merged.count("rules.fire_wall_ns"), 0u);

  // The client saw sustained contention: violation episodes were rolled up.
  EXPECT_GT(tb.clientHm->rollup()->counterSum("hm.violations"), 0);
}

TEST(TelemetryE2E, TelemetryOffKeepsEndpointQuiet) {
  apps::TestbedConfig cfg;
  cfg.seed = 11;
  apps::Testbed tb(cfg);
  tb.startVideo();
  tb.sim.runUntil(sim::sec(10));
  EXPECT_FALSE(tb.clientHm->telemetryEnabled());
  EXPECT_EQ(tb.clientHm->rollup(), nullptr);
  EXPECT_EQ(tb.clientHm->telemetryPublishes(), 0u);
  EXPECT_EQ(tb.dm->telemetry().snapshotsIngested(), 0u);
}

// ---- The loop closes: an SLO breach fires an existing policy rule ----

// Local CPU contention keeps the communication buffer full, so the
// "remote-problem" rule (empty buffer) can never escalate: without the SLO
// plane the domain manager hears nothing. With a tight reaction-latency SLO
// armed, the sustained violation burns the budget, the breach asserts an
// `slo-breach` fact, and the `slo-breach-escalate` rule drives the existing
// notify-domain-manager machinery.
TEST(TelemetryE2E, SloBreachEscalatesThroughTheRuleBase) {
  obs::SloObjective tight;
  tight.name = "reaction-tight";
  tight.kind = obs::SloObjective::Kind::kLatencyQuantile;
  tight.metric = "hm.violation_age_us";
  tight.quantile = 99.0;
  tight.threshold = 1.0;  // any open violation older than 1 us is "bad"
  tight.window = sim::sec(4);
  tight.shortWindow = sim::sec(1);
  tight.fastBurn = 1.0;
  tight.slowBurn = 0.5;

  auto run = [&](bool withSlo) {
    apps::TestbedConfig cfg;
    cfg.seed = 21;
    if (withSlo) {
      cfg.telemetryInterval = sim::sec(1);
      cfg.telemetrySlos = {tight};
    }
    auto tb = std::make_unique<apps::Testbed>(cfg);
    tb->startVideo();
    tb->clientLoad.setWorkers(6);
    tb->clientHost.loadSampler().prime(7.0);
    tb->sim.runUntil(sim::sec(20));
    return tb;
  };

  // Control: same contention, no SLO plane -> local adaptation only.
  const auto control = run(false);
  EXPECT_EQ(control->clientHm->escalationsSent(), 0u)
      << "control run escalated on its own; the scenario no longer isolates "
         "the slo-breach-escalate rule";
  EXPECT_EQ(control->dm->escalationsReceived(), 0u);

  const auto guarded = run(true);
  EXPECT_GE(guarded->clientHm->sloBreachesSeen(), 1u);
  EXPECT_GE(guarded->clientHm->escalationsSent(), 1u)
      << "slo-breach fact did not drive notify-domain-manager";
  EXPECT_GE(guarded->dm->escalationsReceived(), 1u);
  // The breach is visible in the tracker state too.
  bool sawBreach = false;
  for (const auto& e : guarded->clientHm->sloTracker()->entries()) {
    if (e.status.breaches > 0) sawBreach = true;
  }
  EXPECT_TRUE(sawBreach);
}

// ---- Chaos + telemetry soak: everything on, byte-identical replay ----

std::string chaosTelemetryDigest(std::uint64_t seed) {
  apps::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.heartbeatInterval = sim::msec(200);
  cfg.factTtl = sim::sec(5);
  cfg.rpcMaxAttempts = 3;
  cfg.telemetryInterval = sim::sec(1);
  cfg.observability = true;

  apps::Testbed tb(cfg);
  tb.sim.trace().setLevel(sim::TraceLevel::kInfo);
  tb.startVideo();

  faults::FaultInjector injector(tb.sim, tb.network);
  injector.registerHost(tb.clientHost);
  injector.registerHost(tb.serverHost);
  injector.registerHost(tb.mgmtHost);
  injector.registerHostManager(tb.clientHost.name(), *tb.clientHm);
  injector.registerHostManager(tb.serverHost.name(), *tb.serverHm);
  injector.registerDomainManager(tb.mgmtHost.name(), *tb.dm);

  net::LinkFaultProfile lossy;
  lossy.lossRate = 0.3;
  faults::FaultPlan plan;
  plan.hostCrash(sim::sec(5), "server-host")
      .hostRestart(sim::sec(10), "server-host")
      .managerCrash(sim::sec(14), "client-host")
      .managerRestart(sim::sec(17), "client-host")
      .linkDegrade(sim::sec(19), "switch-a", "switch-b", lossy)
      .linkRestore(sim::sec(22), "switch-a", "switch-b");
  injector.arm(plan);

  tb.sim.runUntil(sim::sec(30));

  std::ostringstream out;
  for (const sim::TraceRecord& rec : tb.sim.trace().records()) {
    out << rec.time << '|' << static_cast<int>(rec.level) << '|'
        << rec.component << '|' << rec.message << '\n';
  }
  // The full domain-side aggregation (counters, merged histogram buckets,
  // latest windows) joins the digest: any nondeterminism in the telemetry
  // wire path — including a wall-clock value sneaking into a payload and
  // shifting simulated transmission times — shows up here.
  out << obs::domainMetricsJson(tb.dm->telemetry());
  out << "publishes=" << tb.clientHm->telemetryPublishes() << ","
      << tb.serverHm->telemetryPublishes()
      << " ingested=" << tb.dm->telemetry().snapshotsIngested()
      << " breaches=" << tb.clientHm->sloBreachesSeen() << ","
      << tb.serverHm->sloBreachesSeen()
      << " frames=" << tb.video->framesDisplayed() << '\n';
  return out.str();
}

TEST(TelemetryChaosSoak, ReplaysByteIdenticallyWithEverythingOn) {
  const std::string a = chaosTelemetryDigest(1234);
  const std::string b = chaosTelemetryDigest(1234);
  ASSERT_EQ(a, b) << "telemetry+chaos+tracing run diverged on replay";
  // The soak actually exercised the plane: windows flowed through the
  // outage and at least one domain-level merged histogram has samples.
  EXPECT_NE(a.find("publishes="), std::string::npos);
  EXPECT_NE(a.find("\"histograms\""), std::string::npos);
}

TEST(TelemetryChaosSoak, SeedsDiverge) {
  EXPECT_NE(chaosTelemetryDigest(1), chaosTelemetryDigest(7));
}

}  // namespace
}  // namespace softqos
