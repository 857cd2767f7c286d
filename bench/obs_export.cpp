// Observability export driver: run the managed two-host testbed with causal
// tracing enabled and export the results for offline analysis.
//
//   obs_export [--chaos] [trace.json [metrics.json]]
//   obs_export --city [trace.json [metrics.json [domain.json [flight.json
//              [attribution.json [budget.json [flame.txt
//              [speedscope.json]]]]]]]]
//
// Default mode replays the Figure 3 "high load" scenario (competing CPU
// workers, then bottleneck cross traffic) so the trace contains complete
// detection -> diagnosis -> actuation -> recovery chains at both the host-
// and domain-manager level. --chaos additionally arms a deterministic fault
// plan (lossy link, host-manager daemon crash/restart) against a testbed
// running the liveness protocol, exercising retry/duplicate-suppression and
// fault-localization spans.
//
// --city runs the tiny sharded city with tail-based trace sampling and the
// QoS contract plane armed, crashing the strongest contract offerer's host
// mid-run. It writes the sampler's retained traces (canonically renumbered,
// worker-invariant), a metrics snapshot with the observability drop-counter
// section, the root domain manager's aggregated telemetry with histogram
// exemplars resolved against the sampler, the contract-plane flight
// recorder's dashboard JSON — and the analysis plane's answers: critical-
// path attribution, the latency-budget join against the management SLOs and
// contract deadlines, and flame graphs (collapsed stacks + speedscope JSON;
// load flame.txt or speedscope.json at https://www.speedscope.app).
//
// trace.json is Chrome trace_event JSON (open in https://ui.perfetto.dev or
// chrome://tracing); metrics.json is a MetricRegistry snapshot. The testbed
// runs print the violation-reaction latency p50/p99
// ("qos.reaction_latency_us").
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/city.hpp"
#include "apps/testbed.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "obs/export.hpp"
#include "obs/flame.hpp"
#include "policy/qos_contract.hpp"

using namespace softqos;

namespace {

void printHistogram(const sim::MetricRegistry& metrics, const char* name) {
  const sim::Histogram* h = metrics.histogram(name);
  if (h == nullptr || h->count() == 0) {
    std::printf("%-28s (no samples)\n", name);
    return;
  }
  std::printf("%-28s n=%llu p50=%.0f p90=%.0f p99=%.0f max=%.0f\n", name,
              static_cast<unsigned long long>(h->count()), h->p50(), h->p90(),
              h->p99(), h->max());
}

apps::TestbedConfig baseConfig(bool chaos) {
  apps::TestbedConfig config;
  config.seed = 1234;
  config.observability = true;
  if (chaos) {
    config.redundantPath = true;
    config.heartbeatInterval = sim::msec(500);
    config.factTtl = sim::sec(10);
    config.rpcMaxAttempts = 3;
  }
  return config;
}

void run(bool chaos, const std::string& tracePath,
         const std::string& metricsPath) {
  apps::Testbed bed(baseConfig(chaos));
  bed.startVideo("silver");

  faults::FaultInjector injector(bed.sim, bed.network);
  if (chaos) {
    injector.registerHost(bed.clientHost);
    injector.registerHost(bed.serverHost);
    injector.registerHost(bed.mgmtHost);
    injector.registerHostManager(bed.clientHost.name(), *bed.clientHm);
    injector.registerHostManager(bed.serverHost.name(), *bed.serverHm);
    injector.registerDomainManager(bed.mgmtHost.name(), *bed.dm);

    net::LinkFaultProfile lossy;
    lossy.lossRate = 0.05;
    faults::FaultPlan plan;
    plan.linkDegrade(sim::sec(35), "switch-a", "switch-b", lossy)
        .managerCrash(sim::sec(45), "server-host")
        .managerRestart(sim::sec(55), "server-host")
        .linkRestore(sim::sec(65), "switch-a", "switch-b");
    injector.arm(plan);
  }

  // Phase 1: CPU contention on the client — host-level detection ->
  // diagnosis -> actuation (priority boost / RT grant) -> recovery.
  bed.clientLoad.setWorkers(6);
  bed.clientHost.loadSampler().prime(7.0);
  bed.sim.runUntil(sim::sec(30));

  // Phase 2: congest the bottleneck — host-level adaptation cannot help, so
  // the host manager escalates and the domain manager runs fault
  // localization (network-congestion diagnosis, reroute when a redundant
  // path exists).
  bed.setCrossTraffic(9.0);
  bed.sim.runUntil(sim::sec(60));
  bed.setCrossTraffic(0.0);

  // Phase 3: quiet tail so open episodes observe recovery and close.
  bed.sim.runUntil(sim::sec(90));
  bed.sampler->finalFlush();

  const double fps =
      bed.video ? static_cast<double>(bed.video->framesDisplayed()) /
                      sim::toSeconds(bed.sim.now())
                : 0.0;
  std::printf("%s run: %.0f simulated seconds, mean %.1f fps, %llu spans "
              "(%llu dropped)\n",
              chaos ? "chaos" : "fig3-style", sim::toSeconds(bed.sim.now()),
              fps, static_cast<unsigned long long>(bed.sampler->totalSpans()),
              static_cast<unsigned long long>(bed.sampler->droppedRecords()));
  if (chaos) {
    std::printf("faults injected: %llu, diagnosis: %s\n",
                static_cast<unsigned long long>(injector.injected()),
                bed.dm->lastDiagnosis().c_str());
  }
  printHistogram(bed.sim.metrics(), "qos.reaction_latency_us");
  printHistogram(bed.sim.metrics(), "rpc.roundtrip_us");
  printHistogram(bed.sim.metrics(), "rules.fire_wall_ns");

  {
    std::ofstream out(tracePath);
    out << obs::chromeTraceJson(*bed.sampler);
  }
  {
    std::ofstream out(metricsPath);
    out << obs::metricsJson(bed.sim.metrics());
  }
  std::printf("wrote %s and %s\n", tracePath.c_str(), metricsPath.c_str());
}

void runCity(const std::string* paths) {
  const std::string& tracePath = paths[0];
  const std::string& metricsPath = paths[1];
  const std::string& domainPath = paths[2];
  const std::string& flightPath = paths[3];
  const std::string& attributionPath = paths[4];
  const std::string& budgetPath = paths[5];
  const std::string& flamePath = paths[6];
  const std::string& speedscopePath = paths[7];
  apps::CityConfig config;
  config.seed = 20260808;
  config.tiers = 2;
  config.racks = 4;
  config.hostsPerRack = 4;
  config.processesPerHost = 2;
  config.shards = 8;
  config.workers = 2;
  config.sampling = true;
  config.samplerConfig.slowestReservoir = 8;
  config.samplerConfig.baselineProbability = 0.01;
  config.contractPlane = true;
  apps::City city(config);

  // The strongest contract offerer's host crashes at t=2s; liveliness
  // probing must surface the loss and fail ownership over, and the sampler's
  // "contract:" trigger must retain the resulting traces.
  faults::FaultInjector injector(city.sim, city.network);
  osim::Host& victim = city.contractHost(0);
  injector.registerHost(victim);
  if (manager::QoSHostManager* hm = city.qorms.hostManagerFor(victim.name())) {
    injector.registerHostManager(victim.name(), *hm);
  }
  faults::FaultPlan plan;
  plan.hostCrash(sim::sec(2), victim.name());
  injector.arm(plan);

  // 8 simulated seconds in 500 ms flush chunks (the boundaries land at the
  // same sim times at every worker count, keeping the retained set
  // invariant), then resolve everything still pending.
  for (int i = 0; i < 16; ++i) city.run(sim::msec(500));
  city.finishSampling();

  const obs::TraceSampler& sampler = *city.sampler;
  std::printf("victim host: %s (crashed at t=2s; its manager stays down, so "
              "its episodes detect without diagnosing)\n",
              victim.name().c_str());
  std::printf("city run: %.0f simulated seconds, %d hosts, "
              "traces %llu/%llu retained, spans %llu/%llu retained\n",
              sim::toSeconds(city.sim.now()), city.hostCount(),
              static_cast<unsigned long long>(sampler.retainedCount()),
              static_cast<unsigned long long>(sampler.totalTraces()),
              static_cast<unsigned long long>(sampler.retainedSpanCount()),
              static_cast<unsigned long long>(sampler.totalSpans()));
  const distribution::PolicyAgent& agent = city.qorms.agent();
  std::printf("contract plane: %llu liveliness losses, %llu failovers, "
              "%llu flight-recorder decisions\n",
              static_cast<unsigned long long>(agent.livelinessLosses()),
              static_cast<unsigned long long>(agent.ownershipFailovers()),
              static_cast<unsigned long long>(
                  city.flightRecorder->totalRecords()));

  // Analysis plane: critical-path attribution and flame graphs over the
  // retained trees, plus the budget join against the management-plane SLOs
  // and the contract sessions' effective deadlines.
  obs::CriticalPathAnalyzer analyzer;
  analyzer.analyze(sampler);
  obs::FlameGraph flame;
  flame.addRetained(sampler);

  std::vector<obs::BudgetTarget> budgets;
  if (!city.hostManagers().empty()) {
    if (const obs::SloTracker* slos = city.hostManagers().front()->sloTracker())
      budgets = obs::budgetTargetsFromSlos(*slos);
  }
  for (const auto& [pid, session] : agent.sessions()) {
    if (!session.hasContract || session.effectiveDeadlineMs <= 0) continue;
    obs::BudgetTarget target;
    target.name = session.requestedContract + "#" + std::to_string(pid);
    target.tier = policy::admissionTierName(session.currentTier);
    target.budgetUs = session.effectiveDeadlineMs * 1000.0;
    budgets.push_back(std::move(target));
  }

  std::printf("attribution: %llu episodes analyzed (%llu incomplete "
              "skipped), flame total %lld us over %llu stacks\n",
              static_cast<unsigned long long>(analyzer.episodesAnalyzed()),
              static_cast<unsigned long long>(analyzer.incompleteSkipped()),
              static_cast<long long>(flame.totalWeight()),
              static_cast<unsigned long long>(flame.stacks().size()));
  for (const obs::ComponentBlame& blame : analyzer.componentBlame(3)) {
    std::printf("  blame %-24s self=%lld us wait=%lld us\n",
                blame.component.c_str(), static_cast<long long>(blame.selfUs),
                static_cast<long long>(blame.waitUs));
  }

  {
    std::ofstream out(tracePath);
    out << obs::chromeTraceJson(sampler);
  }
  {
    std::ofstream out(metricsPath);
    out << obs::metricsJson(city.sim.metrics(), &city.sim.trace(), &sampler,
                            &analyzer);
  }
  {
    std::ofstream out(domainPath);
    out << obs::domainMetricsJson(city.rootDm().telemetry(), &sampler);
  }
  {
    std::ofstream out(flightPath);
    out << obs::flightRecorderJson(*city.flightRecorder);
  }
  {
    std::ofstream out(attributionPath);
    out << obs::attributionJson(analyzer);
  }
  {
    std::ofstream out(budgetPath);
    out << obs::latencyBudgetJson(analyzer, budgets);
  }
  {
    std::ofstream out(flamePath);
    out << flame.collapsed();
  }
  {
    std::ofstream out(speedscopePath);
    out << flame.speedscopeJson("obs_export --city episodes");
  }
  std::printf("wrote %s, %s, %s, %s, %s, %s, %s and %s\n", tracePath.c_str(),
              metricsPath.c_str(), domainPath.c_str(), flightPath.c_str(),
              attributionPath.c_str(), budgetPath.c_str(), flamePath.c_str(),
              speedscopePath.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool chaos = false;
  bool cityMode = false;
  std::string paths[8] = {"trace.json",       "metrics.json", "domain.json",
                          "flight.json",      "attribution.json",
                          "budget.json",      "flame.txt",
                          "speedscope.json"};
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--city") == 0) {
      cityMode = true;
    } else if (positional < 8) {
      paths[positional] = argv[i];
      ++positional;
    }
  }
  if (cityMode) {
    runCity(paths);
  } else {
    run(chaos, paths[0], paths[1]);
  }
  return 0;
}
