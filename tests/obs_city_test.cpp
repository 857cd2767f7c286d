// City-scale observability gates: the tiny contract-plane city with tail
// sampling, whose strongest contract offerer's host crashes at t=2 s, run on
// the serial kernel and on 8 shards driven by 1, 2, 4 and 8 workers.
//   - every run keeps complete "contract:liveliness-lost" and
//     "contract:owner-changed" traces, cuts spans by at least 90% and keeps
//     no more spans than the sampler's cap,
//   - every analyzed episode's critical path tiles its root exactly, and the
//     flame graph's total weight equals the attributed total,
//   - the digest, the retained-trace export and the analysis exports are
//     byte-identical across all four runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/city.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/flame.hpp"

namespace softqos {
namespace {

struct ObsCityRun {
  std::string label;
  std::string digest;
  std::string traceJson;
  /// Attribution + latency budget + collapsed stacks + speedscope.
  std::string analysisJson;
  std::uint64_t totalSpans = 0;
  std::uint64_t retainedSpans = 0;
  std::uint64_t retainedCap = 0;
  std::uint64_t livelinessLosses = 0;
  std::uint64_t failovers = 0;
  bool lossRetained = false;
  bool failoverRetained = false;
  std::uint64_t episodes = 0;
  bool attributionTiles = true;
  sim::SimDuration attributed = 0;
  sim::SimDuration flameWeight = 0;
};

/// `shards` == 0 selects the serial kernel.
ObsCityRun runObsCity(unsigned shards, unsigned workers) {
  apps::CityConfig cfg;
  cfg.seed = 20260808;
  cfg.tiers = 2;
  cfg.racks = 4;
  cfg.hostsPerRack = 4;
  cfg.processesPerHost = 2;
  cfg.shards = shards;
  cfg.workers = workers;
  cfg.sampling = true;
  cfg.samplerConfig.slowestReservoir = 8;
  cfg.samplerConfig.baselineProbability = 0.01;
  cfg.contractPlane = true;
  apps::City city(cfg);

  faults::FaultInjector injector(city.sim, city.network);
  osim::Host& victim = city.contractHost(0);
  injector.registerHost(victim);
  if (manager::QoSHostManager* hm = city.qorms.hostManagerFor(victim.name())) {
    injector.registerHostManager(victim.name(), *hm);
  }
  faults::FaultPlan plan;
  plan.hostCrash(sim::sec(2), victim.name());
  injector.arm(plan);

  // 6 simulated seconds in 500 ms chunks: each chunk boundary is a sampler
  // flush at the same sim time for every kernel and worker count.
  for (int i = 0; i < 12; ++i) city.run(sim::msec(500));
  city.finishSampling();

  ObsCityRun r;
  r.label = shards == 0 ? std::string("serial")
                        : std::to_string(shards) + " shards / " +
                              std::to_string(workers) + " workers";
  r.digest = city.digest();
  const obs::TraceSampler& sampler = *city.sampler;
  r.totalSpans = sampler.totalSpans();
  r.retainedSpans = sampler.retainedSpanCount();
  r.retainedCap = city.config().samplerConfig.maxRetainedSpans;
  r.traceJson = obs::chromeTraceJson(sampler);
  for (const obs::SampledTrace* t : sampler.retained()) {
    if (!t->complete) continue;
    if (t->rootName == "contract:liveliness-lost") r.lossRetained = true;
    if (t->rootName == "contract:owner-changed") r.failoverRetained = true;
  }
  const distribution::PolicyAgent& agent = city.qorms.agent();
  r.livelinessLosses = agent.livelinessLosses();
  r.failovers = agent.ownershipFailovers();

  obs::CriticalPathAnalyzer analyzer;
  analyzer.analyze(sampler);
  obs::FlameGraph flame;
  flame.addRetained(sampler);
  r.episodes = analyzer.episodesAnalyzed();
  for (const obs::EpisodeAttribution& ep : analyzer.episodes()) {
    r.attributed += ep.rootDuration();
    sim::SimTime cursor = ep.rootStart;
    for (const obs::PathSegment& seg : ep.segments) {
      if (seg.start != cursor) r.attributionTiles = false;
      cursor = seg.end;
    }
    if (ep.segments.empty() || cursor != ep.rootEnd ||
        ep.segmentSum() != ep.rootDuration()) {
      r.attributionTiles = false;
    }
  }
  r.flameWeight = flame.totalWeight();
  std::vector<obs::BudgetTarget> budgets;
  budgets.push_back({"reaction", "slo", 1.0e6});
  r.analysisJson = obs::attributionJson(analyzer) +
                   obs::latencyBudgetJson(analyzer, budgets) +
                   flame.collapsed() + flame.speedscopeJson("obs_city_test");
  return r;
}

/// The serial kernel first, then 8 shards at 1, 2, 4 and 8 workers.
const std::vector<ObsCityRun>& runs() {
  static const std::vector<ObsCityRun> all = [] {
    std::vector<ObsCityRun> v;
    v.push_back(runObsCity(0, 1));
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      v.push_back(runObsCity(8, workers));
    }
    return v;
  }();
  return all;
}

TEST(ObsCity, InjectedFaultLeavesCompleteRetainedContractTraces) {
  for (const ObsCityRun& r : runs()) {
    SCOPED_TRACE(r.label);
    EXPECT_GE(r.livelinessLosses, 1u);
    EXPECT_GE(r.failovers, 1u);
    EXPECT_TRUE(r.lossRetained);
    EXPECT_TRUE(r.failoverRetained);
  }
}

TEST(ObsCity, RetentionCutsSpansByAtLeastNinetyPercent) {
  for (const ObsCityRun& r : runs()) {
    SCOPED_TRACE(r.label);
    ASSERT_GT(r.totalSpans, 0u);
    EXPECT_LE(r.retainedSpans * 10, r.totalSpans)
        << r.retainedSpans << " of " << r.totalSpans << " spans retained";
    EXPECT_LE(r.retainedSpans, r.retainedCap);
  }
}

TEST(ObsCity, AttributionTilesEveryEpisodeAndMatchesTheFlameGraph) {
  for (const ObsCityRun& r : runs()) {
    SCOPED_TRACE(r.label);
    EXPECT_GT(r.episodes, 0u);
    EXPECT_TRUE(r.attributionTiles);
    EXPECT_EQ(r.flameWeight, r.attributed);
  }
}

TEST(ObsCity, SerialAndShardedRunsExportIdentically) {
  const ObsCityRun& base = runs().front();
  for (const ObsCityRun& r : runs()) {
    SCOPED_TRACE(r.label);
    EXPECT_EQ(r.digest, base.digest);
    EXPECT_TRUE(r.traceJson == base.traceJson);
    EXPECT_TRUE(r.analysisJson == base.analysisJson);
  }
}

}  // namespace
}  // namespace softqos
