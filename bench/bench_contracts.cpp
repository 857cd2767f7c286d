// Contract-plane hot paths: the RxO compatibility decision itself, and
// end-to-end admission latency through PolicyAgent::registerProcess — with
// the plane off (baseline), on at the full tier, and on the rejection path
// (the cost of shedding one incompatible registration under a storm).
//
// A developer tool, run directly (--benchmark_filter=<name>); end-to-end
// numbers come from perfbench (perfbench/README.md). Benchmark names stay
// stable so the figures cited in README.md and EXPERIMENTS.md can be re-run.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "apps/video_model.hpp"
#include "distribution/policy_agent.hpp"
#include "instrument/sensors.hpp"
#include "policy/parser.hpp"
#include "policy/qos_contract.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace softqos;

policy::QosOffer strongOffer() {
  policy::QosOffer offer;
  offer.deadlineMs = 33;
  offer.liveliness = policy::LivelinessKind::kAutomatic;
  offer.leaseMs = 400;
  offer.historyDepth = 8;
  offer.durability = policy::DurabilityKind::kTransientLocal;
  offer.ownershipStrength = 10;
  return offer;
}

policy::QosRequest goldRequest() {
  policy::QosRequest request;
  request.maxDeadlineMs = 36;
  request.maxLeaseMs = 500;
  request.minHistoryDepth = 4;
  request.minDurability = policy::DurabilityKind::kTransientLocal;
  request.degradedDeadlineMs = 80;
  request.degradedHistoryDepth = 1;
  return request;
}

// The pure RxO decision: five-policy compatibility matrix plus effective-QoS
// computation, no repository or session machinery.
void RxoAdmitCompatible(benchmark::State& state) {
  const policy::QosOffer offer = strongOffer();
  const policy::QosRequest request = goldRequest();
  for (auto _ : state) {
    const policy::AdmissionDecision decision = policy::admit(offer, request);
    benchmark::DoNotOptimize(decision.tier);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(RxoAdmitCompatible);

void RxoAdmitDegraded(benchmark::State& state) {
  policy::QosOffer offer = strongOffer();
  offer.deadlineMs = 60;   // misses the 36ms ask, inside the 80ms floor
  offer.historyDepth = 2;  // misses history>=4, inside degrade-history>=1
  const policy::QosRequest request = goldRequest();
  for (auto _ : state) {
    const policy::AdmissionDecision decision = policy::admit(offer, request);
    benchmark::DoNotOptimize(decision.tier);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(RxoAdmitDegraded);

/// Registry + sensors + coordinator for one registerable video session.
struct Rig {
  sim::Simulation sim{1};
  distribution::RepositoryService repo;
  instrument::SensorRegistry registry;
  std::unique_ptr<instrument::Coordinator> coordinator;
  distribution::PolicyAgent agent{sim, repo};

  Rig() {
    apps::seedVideoModel(repo);
    apps::seedVideoContracts(repo);
    policy::PolicySpec spec = policy::parseObligation(
        apps::videoPolicyText("P1", 28.0, 4.0, 3.0, 1.25));
    spec.application = "VideoConference";
    repo.addPolicy(spec);
    registry.addSensor(std::make_shared<instrument::GaugeSensor>(
        sim, "fps_sensor", "frame_rate"));
    registry.addSensor(std::make_shared<instrument::GaugeSensor>(
        sim, "jitter_sensor", "jitter_rate"));
    registry.addSensor(std::make_shared<instrument::GaugeSensor>(
        sim, "buffer_sensor", "buffer_size"));
    coordinator = std::make_unique<instrument::Coordinator>(
        sim, "client-host", 1, "VideoApplication", registry,
        [](const instrument::ViolationReport&) { return true; });
  }

  [[nodiscard]] distribution::PolicyAgent::Registration registration(
      const std::string& role) const {
    distribution::PolicyAgent::Registration reg;
    reg.pid = 1;
    reg.application = "VideoConference";
    reg.executable = "VideoApplication";
    reg.role = role;
    reg.coordinator = coordinator.get();
    return reg;
  }
};

// Baseline: registration without the contract plane (policy lookup, compile,
// install, uninstall). The contract-plane variants are read against this.
void RegisterPlaneOff(benchmark::State& state) {
  Rig rig;
  const auto reg = rig.registration("gold");
  for (auto _ : state) {
    rig.agent.registerProcess(reg);
    rig.agent.deregisterProcess(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(RegisterPlaneOff);

// Admission latency at the full tier: contract lookup + RxO decision +
// tier application on top of the baseline registration.
void RegisterAdmitFull(benchmark::State& state) {
  Rig rig;
  rig.agent.enableContractPlane();
  const auto reg = rig.registration("gold");
  for (auto _ : state) {
    rig.agent.registerProcess(reg);
    rig.agent.deregisterProcess(1);
  }
  benchmark::DoNotOptimize(rig.agent.admissionsFull());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(RegisterAdmitFull);

// The shedding path: a strict request against an offer it cannot match is
// refused with a typed AdmissionError before any policy is installed. This
// is the per-registration cost of surviving an incompatible-match storm.
void RegisterAdmitRejected(benchmark::State& state) {
  Rig rig;
  rig.agent.enableContractPlane();
  // Weaken the offer so the strict silver ask (no degraded floors) misses.
  policy::ContractSpec offer = *rig.repo.findContract("video-server-offer");
  offer.offer.deadlineMs = 60;
  offer.offer.historyDepth = 2;
  rig.repo.addContract(offer);
  const auto reg = rig.registration("silver");
  std::uint64_t rejected = 0;
  for (auto _ : state) {
    try {
      rig.agent.registerProcess(reg);
    } catch (const distribution::AdmissionError&) {
      ++rejected;
    }
  }
  benchmark::DoNotOptimize(rejected);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(RegisterAdmitRejected);

}  // namespace

BENCHMARK_MAIN();
