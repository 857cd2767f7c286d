// Unit tests for the analysis plane: critical-path attribution over
// hand-built span trees with known answers, flame-graph self-weight
// accounting, the latency-budget join, and the determinism guarantee that
// attribution/flame/budget exports are byte-identical across shard and
// worker counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/city.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/flame.hpp"
#include "sim/simulation.hpp"

using namespace softqos;
using obs::CriticalPathAnalyzer;
using obs::EpisodeAttribution;
using obs::FlameGraph;
using obs::SampledSpan;

namespace {

SampledSpan mk(std::uint64_t id, std::uint64_t parent, sim::SimTime start,
               sim::SimTime end, std::string name, std::string component) {
  SampledSpan s;
  s.spanId = id;
  s.parentSpanId = parent;
  s.start = start;
  s.end = end;
  s.name = std::move(name);
  s.component = std::move(component);
  return s;
}

/// The canonical reaction chain: episode on the host, report transit to the
/// host manager, diagnose with a nested rule firing and an actuation RPC,
/// then a recovery tail back on the host.
///
///   episode:frame_rate [0, 1000]  host-a
///     diagnose   [100, 400]  hm:host-a
///       rule:fix [150, 250]  hm:host-a
///       rpc:act  [250, 400]  rpc:host-a
std::vector<SampledSpan> canonicalEpisode() {
  return {
      mk(1, 0, 0, 1000, "episode:frame_rate", "host-a"),
      mk(2, 1, 100, 400, "diagnose", "hm:host-a"),
      mk(3, 2, 150, 250, "rule:fix", "hm:host-a"),
      mk(4, 2, 250, 400, "rpc:act", "rpc:host-a"),
  };
}

const obs::PathSegment* findSegment(const EpisodeAttribution& ep,
                                    std::string_view label,
                                    sim::SimTime start) {
  for (const obs::PathSegment& seg : ep.segments) {
    if (seg.segment == label && seg.start == start) return &seg;
  }
  return nullptr;
}

}  // namespace

TEST(CriticalPath, CanonicalEpisodeDecomposesIntoAllSegments) {
  CriticalPathAnalyzer analyzer;
  const auto ep = analyzer.analyzeTree(canonicalEpisode(), 7);
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->traceId, 7u);
  EXPECT_EQ(ep->rootDuration(), 1000);
  EXPECT_EQ(ep->segmentSum(), ep->rootDuration());

  // [0,100) sense-report (root gap up to the first diagnose child),
  // [100,150) diagnose self, [150,250) rule-match, [250,400) actuate-rpc,
  // [400,1000) recover.
  EXPECT_EQ(ep->segmentTotal(obs::kSegSenseReport), 100);
  EXPECT_EQ(ep->segmentTotal(obs::kSegDiagnose), 50);
  EXPECT_EQ(ep->segmentTotal(obs::kSegRuleMatch), 100);
  EXPECT_EQ(ep->segmentTotal(obs::kSegActuateRpc), 150);
  EXPECT_EQ(ep->segmentTotal(obs::kSegRecover), 600);
  EXPECT_EQ(ep->segmentTotal(obs::kSegOther), 0);

  // Segments tile [rootStart, rootEnd] contiguously.
  sim::SimTime cursor = ep->rootStart;
  for (const obs::PathSegment& seg : ep->segments) {
    EXPECT_EQ(seg.start, cursor);
    cursor = seg.end;
  }
  EXPECT_EQ(cursor, ep->rootEnd);
}

TEST(CriticalPath, WaitVersusSelfSplitsOnComponentBoundaries) {
  CriticalPathAnalyzer analyzer;
  const auto ep = analyzer.analyzeTree(canonicalEpisode(), 1);
  ASSERT_TRUE(ep.has_value());

  // The sense-report gap is bounded above by the diagnose span, which runs
  // on a different component -> queueing/transit (wait).
  const obs::PathSegment* sense = findSegment(*ep, obs::kSegSenseReport, 0);
  ASSERT_NE(sense, nullptr);
  EXPECT_TRUE(sense->wait);

  // The diagnose self segment is bounded above by rule:fix on the SAME
  // component -> self-time.
  const obs::PathSegment* diag = findSegment(*ep, obs::kSegDiagnose, 100);
  ASSERT_NE(diag, nullptr);
  EXPECT_FALSE(diag->wait);

  // The recovery tail trails every child (no upper bound) -> self-time.
  const obs::PathSegment* recover = findSegment(*ep, obs::kSegRecover, 400);
  ASSERT_NE(recover, nullptr);
  EXPECT_FALSE(recover->wait);

  // Blame: rpc self-time lands on the rpc pseudo-component; the wait toward
  // diagnose lands on the host manager's component.
  const auto blame = analyzer.componentBlame();
  bool sawHm = false;
  for (const obs::ComponentBlame& b : blame) {
    if (b.component == "hm:host-a") {
      sawHm = true;
      EXPECT_EQ(b.selfUs, 150);  // diagnose 50 + rule 100
      EXPECT_EQ(b.waitUs, 0);
    }
  }
  EXPECT_TRUE(sawHm);
}

TEST(CriticalPath, LatestFinishingChildWinsOverlap) {
  // Two children overlap; the later-finishing one owns the overlapped
  // region and the earlier one only keeps the uncovered prefix.
  //   root [0, 1000] host
  //     a [100, 600] host   (loses [300,600) to b)
  //     b [300, 800] other
  std::vector<SampledSpan> spans = {
      mk(1, 0, 0, 1000, "episode:x", "host"),
      mk(2, 1, 100, 600, "diagnose", "host"),
      mk(3, 1, 300, 800, "rpc:b", "other"),
  };
  CriticalPathAnalyzer analyzer;
  const auto ep = analyzer.analyzeTree(spans, 1);
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->segmentSum(), 1000);
  EXPECT_EQ(ep->segmentTotal(obs::kSegActuateRpc), 500);  // b: [300, 800)
  EXPECT_EQ(ep->segmentTotal(obs::kSegDiagnose), 200);    // a: [100, 300)
  EXPECT_EQ(ep->segmentTotal(obs::kSegSenseReport), 100);
  EXPECT_EQ(ep->segmentTotal(obs::kSegRecover), 200);  // [800, 1000)
}

TEST(CriticalPath, EnvelopeNormalizationCoversTrailingChildren) {
  // A child outliving its parent stretches the parent's envelope; the root
  // envelope (and the attributed total) covers the latest descendant.
  std::vector<SampledSpan> spans = {
      mk(1, 0, 0, 500, "episode:x", "host"),
      mk(2, 1, 100, 900, "diagnose", "hm"),
  };
  CriticalPathAnalyzer analyzer;
  const auto ep = analyzer.analyzeTree(spans, 1);
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->rootEnd, 900);
  EXPECT_EQ(ep->segmentSum(), 900);
  EXPECT_EQ(ep->segmentTotal(obs::kSegDiagnose), 800);
}

TEST(CriticalPath, IncompleteAndOrphanTreesAreCountedNotAnalyzed) {
  CriticalPathAnalyzer analyzer;

  // Open root -> incomplete.
  std::vector<SampledSpan> open = {mk(1, 0, 0, -1, "episode:x", "host")};
  EXPECT_FALSE(analyzer.analyzeTree(open, 1).has_value());
  EXPECT_EQ(analyzer.incompleteSkipped(), 1u);

  // No root at all -> incomplete.
  std::vector<SampledSpan> rootless = {mk(5, 4, 0, 10, "diagnose", "hm")};
  EXPECT_FALSE(analyzer.analyzeTree(rootless, 2).has_value());
  EXPECT_EQ(analyzer.incompleteSkipped(), 2u);

  // Non-episode root -> counted separately.
  std::vector<SampledSpan> contract = {
      mk(1, 0, 0, 0, "contract:admit-full", "agent")};
  EXPECT_FALSE(analyzer.analyzeTree(contract, 3).has_value());
  EXPECT_EQ(analyzer.nonEpisodeSkipped(), 1u);

  // A span whose parent is missing is excluded and counted as an orphan;
  // the rest of the tree still analyzes.
  std::vector<SampledSpan> orphaned = {
      mk(1, 0, 0, 100, "episode:x", "host"),
      mk(3, 99, 10, 20, "diagnose", "hm"),
  };
  EXPECT_TRUE(analyzer.analyzeTree(orphaned, 4).has_value());
  EXPECT_EQ(analyzer.orphanSpans(), 1u);
  EXPECT_EQ(analyzer.episodesAnalyzed(), 1u);
}

TEST(Flame, SelfWeightsSumToRootEnvelope) {
  FlameGraph flame;
  flame.add(canonicalEpisode());
  EXPECT_EQ(flame.totalWeight(), 1000);
  EXPECT_EQ(flame.tracesAdded(), 1u);

  const std::string collapsed = flame.collapsed();
  // Root self = 1000 - diagnose envelope 300 = 700; diagnose self = 300 -
  // (rule 100 + rpc 150) = 50.
  EXPECT_NE(collapsed.find("episode:frame_rate 700\n"), std::string::npos)
      << collapsed;
  EXPECT_NE(collapsed.find("episode:frame_rate;diagnose 50\n"),
            std::string::npos)
      << collapsed;
  EXPECT_NE(collapsed.find("episode:frame_rate;diagnose;rule:fix 100\n"),
            std::string::npos)
      << collapsed;
  EXPECT_NE(collapsed.find("episode:frame_rate;diagnose;rpc:act 150\n"),
            std::string::npos)
      << collapsed;
}

TEST(Flame, SpeedscopeJsonCarriesEveryStackWeighted) {
  FlameGraph flame;
  flame.add(canonicalEpisode());
  const std::string json = flame.speedscopeJson("test");
  EXPECT_NE(json.find("\"$schema\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"sampled\""), std::string::npos);
  EXPECT_NE(json.find("\"endValue\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"rule:fix\""), std::string::npos);
}

TEST(Flame, ComponentSuffixSplitsFrames) {
  obs::FlameConfig config;
  config.includeComponent = true;
  FlameGraph flame(config);
  flame.add(canonicalEpisode());
  EXPECT_NE(flame.collapsed().find("episode:frame_rate@host-a"),
            std::string::npos);
}

TEST(BudgetJoin, OverBudgetFractionTracksReactionHistogram) {
  CriticalPathAnalyzer analyzer;
  ASSERT_TRUE(analyzer.analyzeTree(canonicalEpisode(), 1).has_value());

  std::vector<obs::BudgetTarget> targets;
  targets.push_back({"tight", "slo", 500.0});   // 1000 us episode: over
  targets.push_back({"loose", "full", 2000.0});  // under
  const std::string json = obs::latencyBudgetJson(analyzer, targets);
  EXPECT_NE(json.find("\"name\":\"tight\""), std::string::npos);
  EXPECT_NE(json.find("\"over_budget_fraction\":1"), std::string::npos);
  EXPECT_NE(json.find("\"over_budget_fraction\":0,"), std::string::npos);
  EXPECT_NE(json.find("\"segment\":\"rule-match\""), std::string::npos);
}

TEST(AttributionExport, JsonCarriesBlameAndEpisodes) {
  CriticalPathAnalyzer analyzer;
  ASSERT_TRUE(analyzer.analyzeTree(canonicalEpisode(), 1).has_value());
  const std::string json = obs::attributionJson(analyzer);
  EXPECT_NE(json.find("\"episodes_analyzed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"component\":\"hm:host-a\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"fix\""), std::string::npos);
  EXPECT_NE(json.find("\"segment\":\"sense-report\""), std::string::npos);
}

namespace {

/// The sampling_test city scenario, returning every analysis-plane export
/// concatenated: attribution, budget, collapsed stacks, speedscope.
std::string cityAnalysisExports(std::uint64_t seed, unsigned shards,
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
  for (int i = 0; i < 6; ++i) city.run(sim::msec(500));
  city.finishSampling();

  CriticalPathAnalyzer analyzer;
  analyzer.analyze(*city.sampler);
  FlameGraph flame;
  flame.addRetained(*city.sampler);
  std::vector<obs::BudgetTarget> targets;
  targets.push_back({"reaction", "slo", 1.0e6});
  return obs::attributionJson(analyzer) +
         obs::latencyBudgetJson(analyzer, targets) + flame.collapsed() +
         flame.speedscopeJson("determinism");
}

}  // namespace

TEST(AnalysisDeterminism, ExportsInvariantAcrossShardAndWorkerCounts) {
  for (const std::uint64_t seed : {11ull, 29ull}) {
    const std::string serial = cityAnalysisExports(seed, 0, 1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(cityAnalysisExports(seed, 2, 1), serial) << "seed " << seed;
    EXPECT_EQ(cityAnalysisExports(seed, 4, 1), serial) << "seed " << seed;
    EXPECT_EQ(cityAnalysisExports(seed, 4, 2), serial) << "seed " << seed;
  }
}

TEST(AnalysisDeterminism, EverySampledEpisodeSumsToItsRootDuration) {
  apps::CityConfig config;
  config.seed = 11;
  config.tiers = 2;
  config.racks = 2;
  config.hostsPerRack = 2;
  config.shards = 4;
  config.workers = 2;
  config.sampling = true;
  config.samplerConfig.slowThreshold = sim::msec(900);
  apps::City city(config);
  for (int i = 0; i < 6; ++i) city.run(sim::msec(500));
  city.finishSampling();

  CriticalPathAnalyzer analyzer;
  analyzer.analyze(*city.sampler);
  EXPECT_GT(analyzer.episodesAnalyzed(), 0u);
  for (const EpisodeAttribution& ep : analyzer.episodes()) {
    EXPECT_EQ(ep.segmentSum(), ep.rootDuration()) << ep.rootName;
    sim::SimTime cursor = ep.rootStart;
    for (const obs::PathSegment& seg : ep.segments) {
      EXPECT_EQ(seg.start, cursor);
      cursor = seg.end;
    }
    EXPECT_EQ(cursor, ep.rootEnd);
  }
}
