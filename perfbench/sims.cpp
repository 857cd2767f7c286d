// The event-loop workloads: fig3 (the paper's Fig. 3 sweep on the two-host
// testbed), city (a 1024-host, 3-tier city on the serial kernel) and chaos
// (the same city with tail sampling, the contract plane and a host crash,
// on 8 shards driven by 1 worker).
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/city.hpp"
#include "apps/testbed.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "net/switch.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/flame.hpp"
#include "profiler.hpp"
#include "sim/csv.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace softqos;

std::string countsKey(const Layers& l) {
  std::ostringstream out;
  for (const std::uint64_t v :
       {l.simEvents, l.simQueueDepthMax, l.osimContextSwitches,
        l.osimPreemptions, l.netPackets, l.netForwarded, l.netDrops,
        l.netUnreachable, l.instrObservations, l.instrAlarms, l.instrReports,
        l.instrPasses, l.rulesFirings, l.rulesActionErrors, l.mgrReports,
        l.mgrEscalationsSent, l.mgrEscalationsReceived, l.mgrTelemetryFrames,
        l.mgrAggregatePublishes, l.mgrRpcCalls, l.mgrRpcTimeouts,
        l.mgrRpcRetries, l.distRegistrations, l.distPushes,
        l.distAdmissionsFull, l.distAdmissionsDegraded,
        l.distAdmissionsRejected, l.distProbes, l.distFailovers,
        l.ldapEntries, l.obsSpansTotal, l.obsSpansRetained, l.obsEvicted,
        l.obsOrphans}) {
    out << v << ',';
  }
  return out.str();
}

}  // namespace

bool LayerEpisodes::countsRepeat() const {
  for (const Layers& e : episodes_) {
    if (countsKey(e) != countsKey(episodes_.front())) return false;
  }
  return true;
}

Layers LayerEpisodes::combined() const {
  Layers out = episodes_.empty() ? Layers{} : episodes_.front();
  if (episodes_.empty()) return out;
  const double n = static_cast<double>(episodes_.size());
  auto mean = [&](double Layers::*field) {
    double sum = 0;
    for (const Layers& e : episodes_) sum += e.*field;
    out.*field = sum / n;
  };
  for (double Layers::*field :
       {&Layers::simTracedWallNs, &Layers::simCallbackNs, &Layers::rulesFireNs,
        &Layers::distRefreshNs, &Layers::obsFlushNs, &Layers::obsExportNs,
        &Layers::obsAnalyzeNs, &Layers::appsBuildNs}) {
    mean(field);
  }
  return out;
}

namespace {

/// Merged host- and sim-clock histograms across a run's traced episodes.
struct Histograms {
  sim::Histogram callbackNs;
  sim::Histogram ruleFireNs;
  sim::Histogram rpcRttUs;

  void finish(Layers& l) const {
    l.simCallbackNsP50 = callbackNs.p50();
    l.simCallbackNsP99 = callbackNs.p99();
    l.rulesFireNsP99 = ruleFireNs.p99();
    l.mgrRpcRttMsP50 = rpcRttUs.p50() / 1000.0;
    l.mgrRpcRttMsP99 = rpcRttUs.p99() / 1000.0;
  }
};

/// Management RPCs completed and timed out, read from the kernel's metric
/// registries (every shard).
struct RpcTotals {
  std::uint64_t calls = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
};

RpcTotals rpcTotals(sim::Simulation& s, Histograms* hist) {
  RpcTotals t;
  for (sim::ShardId shard = 0; shard < s.shardCount(); ++shard) {
    const sim::MetricRegistry& reg = s.shardMetrics(shard);
    std::uint64_t replies = 0;
    if (const sim::Histogram* rtt = reg.histogram("rpc.roundtrip_us")) {
      replies = rtt->count();
      if (hist != nullptr) hist->rpcRttUs.merge(*rtt);
    }
    if (const sim::Histogram* attempts = reg.histogram("rpc.attempts")) {
      t.calls += attempts->count();
      t.timeouts += attempts->count() - replies;
      t.retries += static_cast<std::uint64_t>(attempts->sum()) - attempts->count();
    }
    if (hist != nullptr) {
      if (const sim::Histogram* fire = reg.histogram("rules.fire_wall_ns")) {
        hist->ruleFireNs.merge(*fire);
      }
    }
  }
  return t;
}

void addHost(Layers& l, osim::Host& host) {
  l.osimContextSwitches += host.cpu().contextSwitches();
  for (const auto& [pid, process] : host.processes()) {
    l.osimPreemptions += process->preemptions();
  }
}

void addNetwork(Layers& l, net::Network& network) {
  for (const auto& [ends, channel] : network.channels()) {
    l.netPackets += channel->packetsSent();
    l.netDrops += channel->drops();
  }
  for (net::NodeId id = 0; network.node(id) != nullptr; ++id) {
    if (const auto* sw = dynamic_cast<const net::Switch*>(network.node(id))) {
      l.netForwarded += sw->forwarded();
    }
  }
  l.netUnreachable += network.unreachableDrops();
}

void addManagers(Layers& l, distribution::Qorms& qorms,
                 const std::vector<manager::QoSDomainManager*>& firstTier) {
  for (manager::QoSHostManager* hm : qorms.hostManagers()) {
    l.mgrReports += hm->reportsReceived();
    l.mgrEscalationsSent += hm->escalationsSent();
    l.rulesFirings += hm->engine().totalFirings();
    l.rulesActionErrors += hm->engine().actionErrors();
  }
  for (manager::QoSDomainManager* dm : qorms.domainManagers()) {
    l.rulesFirings += dm->engine().totalFirings();
    l.rulesActionErrors += dm->engine().actionErrors();
    l.mgrTelemetryFrames += dm->telemetryFramesReceived();
    l.mgrAggregatePublishes += dm->aggregatePublishes();
  }
  for (const manager::QoSDomainManager* dm : firstTier) {
    l.mgrEscalationsReceived += dm->escalationsReceived();
  }
  const distribution::PolicyAgent& agent = qorms.agent();
  l.distRegistrations += agent.registrations();
  l.distPushes += agent.pushes();
  l.distAdmissionsFull += agent.admissionsFull();
  l.distAdmissionsDegraded += agent.admissionsDegraded();
  l.distAdmissionsRejected += agent.admissionsRejected();
  l.distProbes += agent.livelinessProbesSent();
  l.distFailovers += agent.ownershipFailovers();
  l.ldapEntries += qorms.repository().directory().size();
}

void addKernel(Layers& l, sim::Simulation& s, const KernelProfiler& profiler,
               double tracedWallNs, Histograms& hist) {
  l.simEvents += profiler.events();
  l.simCallbackNs += profiler.callbackNanos();
  l.simTracedWallNs += tracedWallNs;
  l.simQueueDepthMax = std::max(l.simQueueDepthMax, profiler.maxDepth());
  hist.callbackNs.merge(profiler.callbackHistogram());
  const RpcTotals rpc = rpcTotals(s, &hist);
  l.mgrRpcCalls += rpc.calls;
  l.mgrRpcTimeouts += rpc.timeouts;
  l.mgrRpcRetries += rpc.retries;
  for (sim::ShardId shard = 0; shard < s.shardCount(); ++shard) {
    if (const sim::Histogram* fire =
            s.shardMetrics(shard).histogram("rules.fire_wall_ns")) {
      l.rulesFireNs += fire->sum();
    }
  }
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

// ---- fig3 ------------------------------------------------------------------

struct SweepPoint {
  int workers;
  double targetLoad;
};

// Worker counts that land near the paper's load-average points.
constexpr SweepPoint kSweep[] = {{0, 0.7}, {2, 3.0}, {4, 5.0}, {6, 7.0}, {9, 10.0}};

struct Sweep {
  std::string csv;
  std::vector<double> fpsNormal;
  std::vector<double> fpsManaged;
};

double runPoint(const Options& options, bool managed, const SweepPoint& p,
                EndToEnd& e2e, double* load, Layers* layers, Histograms* hist,
                std::vector<double>* stepCpuUs) {
  const Stopwatch setup;
  const CpuStopwatch setupCpu;
  apps::TestbedConfig config;
  config.seed = options.seed;
  config.withManagers = managed;
  auto bed = std::make_unique<apps::Testbed>(config);
  bed->startVideo("silver");
  bed->clientLoad.setWorkers(p.workers);
  // The load average converges over minutes; prime it near the steady state.
  bed->clientHost.loadSampler().prime(p.targetLoad);
  const double setupNs = static_cast<double>(setup.nanos());
  const double setupCpuS = setupCpu.seconds();
  if (layers == nullptr) e2e.setupPart(setupCpuS * 1e6);

  KernelProfiler profiler;
  std::unique_ptr<ProfilerAttachment> attach;
  if (layers != nullptr) attach = std::make_unique<ProfilerAttachment>(bed->sim, profiler);

  // 30 s of warm-up and adaptation, then 60 s of measurement, in parts of
  // one simulated second (about 0.2 ms of host CPU).
  EndToEnd* parts = layers == nullptr ? &e2e : nullptr;
  const Stopwatch step;
  const CpuStopwatch stepCpu;
  for (int s = 0; s < 30; ++s) {
    timedPart(parts, [&] { bed->sim.runUntil(bed->sim.now() + sim::sec(1)); });
  }
  double frames = 0;
  for (int s = 0; s < 60; ++s) {
    timedPart(parts, [&] { frames += bed->measureFps(sim::sec(1)); });
  }
  const double fps = frames / 60.0;
  const double stepCpuS = stepCpu.seconds();
  const double stepNs = static_cast<double>(step.nanos());
  *load = bed->clientHost.loadAverage();
  if (stepCpuUs != nullptr) stepCpuUs->push_back(stepCpuS * 1e6);

  if (layers == nullptr) {
    e2e.endStep(stepNs / 1e3);
    return fps;
  }
  Layers& l = *layers;
  l.appsBuildNs += setupNs;
  addKernel(l, bed->sim, profiler, stepNs, *hist);
  for (osim::Host* host : {&bed->clientHost, &bed->serverHost, &bed->mgmtHost}) {
    addHost(l, *host);
  }
  addNetwork(l, bed->network);
  std::vector<manager::QoSDomainManager*> dms;
  if (bed->dm != nullptr) dms.push_back(bed->dm);
  addManagers(l, bed->qorms, dms);
  instrument::SensorRegistry& registry = bed->video->registry();
  for (const std::string& id : registry.sensorIds()) {
    const instrument::Sensor* sensor = registry.sensor(id);
    l.instrObservations += sensor->observations();
    l.instrAlarms += sensor->alarmsRaised();
  }
  if (const instrument::Coordinator* coord = bed->video->coordinator()) {
    l.instrReports += coord->violationsReported() + coord->clearsReported();
  }
  return fps;
}

Sweep runSweep(const Options& options, EndToEnd& e2e, Layers* layers,
               Histograms* hist, std::vector<double>* stepCpuUs) {
  Sweep sweep;
  sim::MetricRegistry csvData;
  // A sweep's set-up is its ten testbed builds, one part each.
  if (layers == nullptr) {
    e2e.beginSetup();
    e2e.beginEpisode();
  }
  for (const SweepPoint& p : kSweep) {
    double loadNormal = 0;
    double loadManaged = 0;
    const double fpsNormal =
        runPoint(options, false, p, e2e, &loadNormal, layers, hist, stepCpuUs);
    const double fpsManaged =
        runPoint(options, true, p, e2e, &loadManaged, layers, hist, stepCpuUs);
    const double load = (loadNormal + loadManaged) / 2.0;
    const auto x = static_cast<sim::SimTime>(load * sim::kSecond);
    csvData.sample("fps.normal_scheduler", x, fpsNormal);
    csvData.sample("fps.with_resource_manager", x, fpsManaged);
    sweep.fpsNormal.push_back(fpsNormal);
    sweep.fpsManaged.push_back(fpsManaged);
  }
  sweep.csv = sim::seriesCsv(csvData);
  return sweep;
}

}  // namespace

void runFig3(const Options& options, Report& report) {
  // The paper's shape at any seed: managed playback holds near 28 fps at
  // every load, normal scheduling collapses at load 10. The repository's
  // reference seed meets the tighter Fig. 3 bounds.
  constexpr std::uint64_t kReferenceSeed = 1234;
  const bool reference = options.seed == kReferenceSeed;
  const double managedFloor = reference ? 27.0 : 26.5;
  const double normalCeilingAtLoad10 = reference ? 6.0 : 8.0;

  EndToEnd e2e;
  LayerEpisodes traced;
  Histograms hist;
  std::vector<double> untracedCpu;
  std::vector<double> tracedCpu;
  std::vector<Sweep> untracedSweeps;
  std::vector<Sweep> tracedSweeps;
  const Stopwatch origin;
  // A traced run alternates untraced and traced sweeps so both see the same
  // machine state; the first sweep is always untraced.
  for (int i = 0; i == 0 || !budgetSpent(origin, options) ||
                  (options.trace && tracedSweeps.empty());
       ++i) {
    const bool profiled = options.trace && i % 2 == 1;
    if (profiled) {
      Layers l;
      tracedSweeps.push_back(runSweep(options, e2e, &l, &hist, &tracedCpu));
      traced.add(l);
    } else {
      untracedSweeps.push_back(
          runSweep(options, e2e, nullptr, nullptr, options.trace ? &untracedCpu : nullptr));
    }
  }

  const Sweep& base = untracedSweeps.front();
  std::uint64_t points = 0;
  std::uint64_t failedPoints = 0;
  for (const auto* sweeps : {&untracedSweeps, &tracedSweeps}) {
    for (const Sweep& s : *sweeps) {
      for (std::size_t i = 0; i < s.fpsManaged.size(); ++i) {
        points += 2;
        if (s.fpsManaged[i] < managedFloor) ++failedPoints;
        const bool atLoad10 = i + 1 == s.fpsNormal.size();
        if (atLoad10 && s.fpsNormal[i] >= normalCeilingAtLoad10) ++failedPoints;
      }
    }
  }
  bool repeat = true;
  for (const Sweep& s : untracedSweeps) repeat = repeat && s.csv == base.csv;
  report.ops(points, failedPoints);

  double managedMin = base.fpsManaged.front();
  for (const double f : base.fpsManaged) managedMin = std::min(managedMin, f);
  report.check("fig3.managed_fps_floor", managedMin >= managedFloor,
               "min managed fps " + std::to_string(managedMin));
  report.check("fig3.normal_collapse_at_load10",
               base.fpsNormal.back() < normalCeilingAtLoad10,
               "normal fps at load 10: " + std::to_string(base.fpsNormal.back()));
  report.check("fig3.sweeps_repeat", repeat,
               "every sweep of one seed yields the same CSV");
  report.artifact("fig3_csv", base.csv);
  report.info("csv_fnv1a", hex(fnv1a(base.csv)));
  report.info("fps_managed_min", std::to_string(managedMin));

  if (!options.trace) {
    emitEndToEnd(report, e2e);
    return;
  }
  bool tracedSame = true;
  for (const Sweep& s : tracedSweeps) tracedSame = tracedSame && s.csv == base.csv;
  report.check("trace.fig3_csv_identical", tracedSame,
               "a profiled sweep reproduces the unprofiled CSV");
  report.check("trace.counts_repeat", traced.countsRepeat());
  Layers l = traced.combined();
  hist.finish(l);
  l.appsBuildNs /= static_cast<double>(std::size(kSweep) * 2);
  l.appsFpsManagedMin = managedMin;
  l.untracedStepUs = meanOf(untracedCpu);
  l.tracedStepUs = meanOf(tracedCpu);
  emitLayers(report, l);
}

// ---- city and chaos ----------------------------------------------------------

namespace {

constexpr sim::SimDuration kSlice = sim::msec(100);
constexpr sim::SimDuration kPart = sim::usec(250);  // about 0.12 ms of host CPU
constexpr sim::SimDuration kWarmup = sim::sec(1);
constexpr sim::SimDuration kFlushPeriod = sim::msec(500);
constexpr sim::SimTime kCrashAt = sim::sec(2);

apps::CityConfig cityConfig(std::uint64_t seed, bool chaos, bool serial) {
  apps::CityConfig cfg;
  cfg.seed = seed;
  cfg.tiers = 3;
  cfg.racks = 32;
  cfg.hostsPerRack = 32;
  cfg.racksPerCluster = 8;
  cfg.processesPerHost = 2;
  cfg.workers = 1;
  cfg.shards = chaos && !serial ? 8 : 0;
  if (chaos) {
    cfg.sampling = true;
    cfg.samplerConfig.slowestReservoir = 8;
    cfg.samplerConfig.baselineProbability = 0.01;
    cfg.contractPlane = true;
  }
  return cfg;
}

struct CityEpisode {
  std::string digest;
  std::string traceJson;  // chaos only: the canonical retained-trace export
  RpcTotals rpc;
  std::uint64_t unreachable = 0;  // packets that found no route
  std::uint64_t hmReports = 0;
  std::uint64_t escalationsSent = 0;
  std::uint64_t escalationsReceived = 0;
  std::uint64_t livelinessLosses = 0;
  std::uint64_t failovers = 0;
  bool lossRetained = false;
  bool failoverRetained = false;
  bool attributionComplete = true;
  std::uint64_t totalSpans = 0;
  std::uint64_t retainedSpans = 0;
  std::size_t retainedCap = 0;
  double failoverMs = 0;  // sim clock: crash -> retained owner-changed root
};

CityEpisode runCityEpisode(const Options& options, bool chaos, bool serial,
                           sim::SimDuration length, EndToEnd& e2e,
                           Layers* layers, Histograms* hist,
                           std::vector<double>* stepCpuUs) {
  CityEpisode ep;
  KernelProfiler profiler;  // outlives the city's observer slot
  const Stopwatch setup;
  const CpuStopwatch setupCpu;
  auto city = std::make_unique<apps::City>(cityConfig(options.seed, chaos, serial));
  std::unique_ptr<faults::FaultInjector> injector;
  if (chaos) {
    // The strongest contract offerer's host crashes: liveliness probing must
    // declare the session lost and fail ownership over.
    injector = std::make_unique<faults::FaultInjector>(city->sim, city->network);
    osim::Host& victim = city->contractHost(0);
    injector->registerHost(victim);
    if (manager::QoSHostManager* hm = city->qorms.hostManagerFor(victim.name())) {
      injector->registerHostManager(victim.name(), *hm);
    }
    faults::FaultPlan plan;
    plan.hostCrash(kCrashAt, victim.name());
    injector->arm(plan);
  }
  const double setupNs = static_cast<double>(setup.nanos());
  if (layers == nullptr) {
    // The city build cannot be split from outside: one set-up part.
    e2e.beginSetup();
    e2e.setupPart(setupCpu.seconds() * 1e6);
    e2e.beginEpisode();
  }

  std::unique_ptr<ProfilerAttachment> attach;
  if (layers != nullptr) attach = std::make_unique<ProfilerAttachment>(city->sim, profiler);

  double flushNs = 0;
  double tracedWallNs = 0;
  const sim::SimTime end = city->sim.now() + length;
  while (city->sim.now() < end) {
    const bool warm = city->sim.now() >= kWarmup;
    EndToEnd* parts = warm && layers == nullptr ? &e2e : nullptr;
    const Stopwatch slice;
    const CpuStopwatch sliceCpu;
    const sim::SimTime sliceEnd = city->sim.now() + kSlice;
    while (city->sim.now() < sliceEnd) {
      timedPart(parts, [&] { city->sim.runUntil(city->sim.now() + kPart); });
    }
    const double sliceCpuUs = sliceCpu.seconds() * 1e6;
    const double sliceNs = static_cast<double>(slice.nanos());
    tracedWallNs += sliceNs;
    if (parts != nullptr) e2e.endStep(sliceNs / 1e3);
    if (warm && stepCpuUs != nullptr) stepCpuUs->push_back(sliceCpuUs);
    if (city->sampler && city->sim.now() % kFlushPeriod == 0) {
      // Flushes land on fixed sim times, so every kernel resolves the same
      // retained set.
      const Stopwatch flush;
      city->sampler->flush();
      flushNs += static_cast<double>(flush.nanos());
    }
  }

  double exportNs = 0;
  double analyzeNs = 0;
  if (chaos) {
    const Stopwatch flush;
    city->finishSampling();
    flushNs += static_cast<double>(flush.nanos());
    const obs::TraceSampler& sampler = *city->sampler;
    const Stopwatch exportWatch;
    ep.traceJson = obs::chromeTraceJson(sampler);
    exportNs = static_cast<double>(exportWatch.nanos());
    for (const obs::SampledTrace* t : sampler.retained()) {
      if (!t->complete) continue;
      if (t->rootName == "contract:liveliness-lost") ep.lossRetained = true;
      if (t->rootName == "contract:owner-changed" && t->rootStart >= kCrashAt) {
        ep.failoverRetained = true;
        if (ep.failoverMs == 0) {
          ep.failoverMs = static_cast<double>(t->rootStart - kCrashAt) / 1000.0;
        }
      }
    }
    // The analysis plane over the retained set: every episode's critical
    // path must tile its root exactly, and the flame graph must agree.
    const Stopwatch analyzeWatch;
    obs::CriticalPathAnalyzer analyzer;
    analyzer.analyze(sampler);
    obs::FlameGraph flame;
    flame.addRetained(sampler);
    sim::SimDuration attributed = 0;
    for (const obs::EpisodeAttribution& a : analyzer.episodes()) {
      attributed += a.rootDuration();
      if (a.segments.empty() || a.segmentSum() != a.rootDuration()) {
        ep.attributionComplete = false;
      }
    }
    ep.attributionComplete = ep.attributionComplete &&
                             analyzer.episodesAnalyzed() > 0 &&
                             flame.totalWeight() == attributed;
    analyzeNs = static_cast<double>(analyzeWatch.nanos());
    ep.totalSpans = sampler.totalSpans();
    ep.retainedSpans = sampler.retainedSpanCount();
    ep.retainedCap = city->config().samplerConfig.maxRetainedSpans;
    const distribution::PolicyAgent& agent = city->qorms.agent();
    ep.livelinessLosses = agent.livelinessLosses();
    ep.failovers = agent.ownershipFailovers();
  }

  ep.digest = city->digest();
  ep.rpc = rpcTotals(city->sim, nullptr);
  ep.unreachable = city->network.unreachableDrops();
  for (const manager::QoSHostManager* hm : city->hostManagers()) {
    ep.hmReports += hm->reportsReceived();
    ep.escalationsSent += hm->escalationsSent();
  }
  for (const manager::QoSDomainManager* dm : city->rackDms()) {
    ep.escalationsReceived += dm->escalationsReceived();
  }

  if (layers != nullptr) {
    Layers& l = *layers;
    l.appsBuildNs = setupNs;
    addKernel(l, city->sim, profiler, tracedWallNs, *hist);
    for (int r = 0; r < city->config().racks; ++r) {
      for (int i = 0; i < city->config().hostsPerRack; ++i) {
        addHost(l, city->workloadHost(r, i));
      }
    }
    addNetwork(l, city->network);
    addManagers(l, city->qorms, city->rackDms());
    l.obsFlushNs = flushNs;
    l.obsExportNs = exportNs;
    l.obsAnalyzeNs = analyzeNs;
    if (city->sampler) {
      const obs::TraceSampler& sampler = *city->sampler;
      l.obsSpansTotal = sampler.totalSpans();
      l.obsSpansRetained = sampler.retainedSpanCount();
      l.obsEvicted = sampler.evictedPending() + sampler.evictedRetained();
      l.obsOrphans = sampler.orphanRecords();
    }
    l.distFailoverMs = ep.failoverMs;
  }
  return ep;
}

/// Recorded FNV-1a hashes of the city digest and the chaos digest and
/// retained-trace export at the default seed, produced by this benchmark's
/// episode schedule.
constexpr std::uint64_t kCityDefaultSeed = 20260808;
constexpr std::uint64_t kCityDigestHash = 0xb9561f965af0c745ull;
constexpr std::uint64_t kChaosDigestHash = 0x9896d00f0ea56bc8ull;
constexpr std::uint64_t kChaosTraceHash = 0x8e84de52180adc47ull;

void runCityLike(const Options& options, Report& report, bool chaos) {
  const sim::SimDuration length = chaos ? sim::sec(3) : sim::sec(2);
  const std::string prefix = chaos ? "chaos." : "city.";
  EndToEnd e2e;
  LayerEpisodes traced;
  Histograms hist;
  std::vector<double> untracedCpu;
  std::vector<double> tracedCpu;
  std::vector<CityEpisode> untraced;
  std::vector<CityEpisode> profiled;
  const Stopwatch origin;
  for (int i = 0; i == 0 || !budgetSpent(origin, options) ||
                  (options.trace && profiled.empty());
       ++i) {
    if (options.trace && i % 2 == 1) {
      // Only the serial kernel calls the profiling hook.
      Layers l;
      profiled.push_back(runCityEpisode(options, chaos, /*serial=*/true, length,
                                        e2e, &l, &hist, &tracedCpu));
      traced.add(l);
    } else {
      untraced.push_back(runCityEpisode(options, chaos, /*serial=*/false, length,
                                        e2e, nullptr, nullptr,
                                        options.trace ? &untracedCpu : nullptr));
    }
  }

  const CityEpisode& base = untraced.front();
  // An RPC that times out is a simulated outcome the management plane is
  // built to absorb (congested links drop packets at some seeds; on chaos
  // the crashed host stops answering), so it is reported, not failed. A
  // management packet with no route is a broken topology: that fails.
  std::uint64_t calls = 0;
  std::uint64_t unroutable = 0;
  bool repeat = true;
  for (const auto* episodes : {&untraced, &profiled}) {
    for (const CityEpisode& ep : *episodes) {
      calls += ep.rpc.calls;
      unroutable += ep.unreachable;
    }
  }
  for (const CityEpisode& ep : untraced) {
    repeat = repeat && ep.digest == base.digest && ep.traceJson == base.traceJson;
  }
  report.ops(calls, unroutable);

  const std::uint64_t digestHash = fnv1a(base.digest);
  const std::uint64_t traceHash = fnv1a(base.traceJson);
  report.info("digest_fnv1a", hex(digestHash));
  report.info("rpc_calls_per_episode", std::to_string(base.rpc.calls));
  report.info("rpc_timeouts_per_episode", std::to_string(base.rpc.timeouts));
  report.check(prefix + "episodes_repeat", repeat,
               "every episode of one seed yields the same digest");
  report.check(prefix + "reports_flow", base.hmReports > 0,
               std::to_string(base.hmReports) + " reports");
  report.check(prefix + "escalations_delivered",
               base.escalationsReceived <= base.escalationsSent &&
                   base.escalationsReceived > 0,
               std::to_string(base.escalationsReceived) + " of " +
                   std::to_string(base.escalationsSent));
  if (chaos) {
    report.info("trace_fnv1a", hex(traceHash));
    report.info("failover_ms", std::to_string(base.failoverMs));
    report.check("chaos.liveliness_loss_and_failover",
                 base.livelinessLosses >= 1 && base.failovers >= 1);
    report.check("chaos.fault_traces_retained",
                 base.lossRetained && base.failoverRetained,
                 "complete contract:liveliness-lost and contract:owner-changed traces");
    report.check("chaos.retention_under_cap_and_10pct",
                 base.retainedSpans <= base.retainedCap &&
                     base.retainedSpans * 10 <= base.totalSpans,
                 std::to_string(base.retainedSpans) + " of " +
                     std::to_string(base.totalSpans) + " spans retained");
    report.check("chaos.attribution_complete", base.attributionComplete);
  }
  if (options.seed == kCityDefaultSeed) {
    if (chaos) {
      report.check("chaos.recorded_digest", digestHash == kChaosDigestHash,
                   hex(digestHash));
      report.check("chaos.recorded_trace_hash", traceHash == kChaosTraceHash,
                   hex(traceHash));
    } else {
      report.check("city.recorded_digest", digestHash == kCityDigestHash,
                   hex(digestHash));
    }
  }

  if (!options.trace) {
    emitEndToEnd(report, e2e);
    return;
  }
  bool same = true;
  for (const CityEpisode& ep : profiled) {
    same = same && ep.digest == base.digest && ep.traceJson == base.traceJson;
  }
  report.check("trace." + prefix + "outputs_identical", same,
               "a profiled serial episode reproduces the unprofiled digest" +
                   std::string(chaos ? " and retained-trace export" : ""));
  report.check("trace.counts_repeat", traced.countsRepeat());
  Layers l = traced.combined();
  hist.finish(l);
  l.untracedStepUs = meanOf(untracedCpu);
  l.tracedStepUs = meanOf(tracedCpu);
  emitLayers(report, l);
}

}  // namespace

void runCity(const Options& options, Report& report) {
  runCityLike(options, report, /*chaos=*/false);
}

void runChaos(const Options& options, Report& report) {
  runCityLike(options, report, /*chaos=*/true);
}

}  // namespace perfbench
