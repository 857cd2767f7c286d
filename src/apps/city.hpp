// A city-scale management testbed: racks of workload hosts behind top-of-rack
// switches, a QoS Domain Manager per rack, optional mid-tier cluster managers,
// and one root manager — the domain-of-domains tree from Section 9 scaled to
// ~1k hosts. Every workload host runs a small web+video process mix whose
// coordinator reports drive the per-host rule engines; rack managers aggregate
// child telemetry and republish only the merged delta upward, so the root's
// fabric traffic tracks tier fan-out, not host count.
//
//   h00-00..h00-NN --- tor-00 --+
//   rdm-00-host ------/         +--- agg-0 --+
//   h01-00..h01-NN --- tor-01 --+  (tiers=3) +--- core --- root-host
//   rdm-01-host ------/                      |
//   ...                   (tiers=2: tor -> core)
//
// Unlike the two-host video testbed, every workload here is host-local (no
// cross-host session loops), so the shards are worker-clean: the same shard
// layout can be driven by 1..N worker threads with byte-identical results,
// and — because every event timestamp is deterministic and per-host phase
// offsets keep simultaneous arrivals apart — the sharded schedule replays the
// serial kernel's behaviour exactly (see CityConfig::shards).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "distribution/qorms.hpp"
#include "instrument/coordinator.hpp"
#include "instrument/registry.hpp"
#include "net/partition.hpp"
#include "net/switch.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sampler.hpp"
#include "osim/host.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/span.hpp"

namespace softqos::apps {

struct CityConfig {
  std::uint64_t seed = 1;
  /// 2: racks report to the root directly. 3: racks -> clusters -> root.
  int tiers = 3;
  int racks = 4;
  int hostsPerRack = 4;
  int racksPerCluster = 2;  // tiers == 3 only
  /// Per-host process mix, alternating web ("WebServer") and video
  /// ("VideoPlayer") workloads. Each process gets a coordinator-report
  /// driver and contributes CPU demand to its host.
  int processesPerHost = 2;
  /// Total shard count — FIXED while `workers` varies, so every worker
  /// count executes the identical schedule. 0 selects the historical
  /// serial kernel (single event queue, no windowing).
  unsigned shards = 8;
  /// Worker threads driving the windows; must divide `shards`.
  unsigned workers = 1;
  /// Place workload hosts with the channel-affinity ShardPlanner (pinning
  /// the management plane to shard 0). false: round-robin hand placement,
  /// the baseline the planner is judged against.
  bool usePlanner = true;
  /// Attach an obs::TraceSampler (tail-based sampling): the report drivers
  /// mint "episode:frame_rate" traces the managers' diagnosis/actuation
  /// spans nest under, per-shard buffers are flushed at every run()
  /// boundary, and samplerConfig's retention policy decides which traces
  /// survive. Shard-safe: stays attached through multi-worker runs. Off by
  /// default — a city without it runs byte-identically to earlier builds.
  bool sampling = false;
  obs::SamplerConfig samplerConfig;
  /// Arm the QoS contract plane: three camera offerer sessions (spread over
  /// the racks, descending ownership strength) admitted through the policy
  /// agent's RxO matcher, liveliness-probed over RPC from the root seat, and
  /// captured by a contract-plane flight recorder. Off by default —
  /// byte-identical to earlier builds.
  bool contractPlane = false;
};

/// The full city: topology, managers, workload drivers. Construction builds
/// everything; run() advances the clock.
class City {
 public:
  explicit City(CityConfig config = {});

  City(const City&) = delete;
  City& operator=(const City&) = delete;

  sim::Simulation sim;
  net::Network network;
  distribution::Qorms qorms;

  /// Non-null when config.sampling; attached to `sim` for the city's
  /// lifetime. run() flushes it at each boundary; call finalFlush() (or
  /// finishSampling()) once before exporting.
  std::unique_ptr<obs::TraceSampler> sampler;
  /// Non-null when config.contractPlane; wired into the policy agent.
  std::unique_ptr<obs::FlightRecorder> flightRecorder;

  /// Advance the simulation by `span`; returns events executed. With
  /// sampling on, the sampler's per-shard buffers are flushed afterwards —
  /// the boundary lands at the same sim time regardless of shard or worker
  /// count, which keeps the retained set invariant.
  std::uint64_t run(sim::SimDuration span);

  /// Resolve every still-pending sampled trace (end of run). No-op without
  /// sampling.
  void finishSampling();

  [[nodiscard]] const CityConfig& config() const { return config_; }
  [[nodiscard]] int hostCount() const { return config_.racks * config_.hostsPerRack; }

  /// The root of the domain tree.
  [[nodiscard]] manager::QoSDomainManager& rootDm() { return *rootDm_; }
  [[nodiscard]] const std::vector<manager::QoSDomainManager*>& rackDms() const {
    return rackDms_;
  }
  [[nodiscard]] const std::vector<manager::QoSHostManager*>& hostManagers() const {
    return hms_;
  }
  [[nodiscard]] osim::Host& workloadHost(int rack, int i) {
    return *hosts_[static_cast<std::size_t>(rack * config_.hostsPerRack + i)];
  }

  /// Pids of the contract-plane camera sessions, in registration
  /// (descending-strength) order; empty without the contract plane.
  [[nodiscard]] const std::vector<osim::Pid>& contractPids() const {
    return contractPids_;
  }
  /// Host the i-th contract session runs on.
  [[nodiscard]] osim::Host& contractHost(int i) {
    return *hosts_[contractHostIdx_[static_cast<std::size_t>(i)]];
  }

  /// The shard layout chosen for the workload hosts (identity when serial).
  [[nodiscard]] const net::ShardPlan& layout() const { return plan_; }

  /// The affinity graph the layout is planned from: one node per workload
  /// host (load = its process count), one edge per paced traffic pair, and
  /// a pinned "@management" node standing in for the switch fabric and
  /// manager seats on shard 0. Exposed so tests can compare the planner's
  /// cut against hand placements over the identical graph.
  [[nodiscard]] static net::ShardPlanner affinityGraph(const CityConfig& config);

  /// Deterministic run fingerprint: every manager's observable counters in
  /// creation order plus the network's drop statistics. Two runs are
  /// behaviourally identical iff their digests match byte-for-byte.
  [[nodiscard]] std::string digest() const;

  /// Name helpers (also the planner-node names).
  [[nodiscard]] static std::string hostName(int rack, int i);
  [[nodiscard]] static std::string rackSeatName(int rack);
  [[nodiscard]] static std::string clusterSeatName(int cluster);

 private:
  void buildTopology();
  void buildManagers();
  void startWorkloads();
  void startContractPlane();

  CityConfig config_;
  net::ShardPlan plan_;

  std::vector<std::unique_ptr<osim::Host>> hosts_;       // workload hosts
  std::vector<std::unique_ptr<osim::Host>> seats_;       // manager seats
  std::vector<std::unique_ptr<net::Switch>> tors_;       // one per rack
  std::vector<std::unique_ptr<net::Switch>> aggs_;       // one per cluster
  std::unique_ptr<net::Switch> core_;

  std::vector<manager::QoSHostManager*> hms_;            // one per host
  std::vector<manager::QoSDomainManager*> rackDms_;
  std::vector<manager::QoSDomainManager*> clusterDms_;
  manager::QoSDomainManager* rootDm_ = nullptr;

  /// One violation-state flag per (host, process); flipped by the report
  /// drivers from per-host named streams.
  std::vector<std::unique_ptr<sim::RandomStream>> streams_;
  std::vector<char> violated_;
  std::vector<osim::Pid> pids_;  // spawned workload pids, (host, process) order
  /// Open episode trace per driver (sampling only; default contexts else).
  std::vector<sim::TraceContext> episodeCtx_;

  // Contract-plane sessions (config.contractPlane).
  std::vector<std::unique_ptr<instrument::SensorRegistry>> camRegistries_;
  std::vector<std::unique_ptr<instrument::Coordinator>> camCoordinators_;
  std::vector<osim::Pid> contractPids_;
  std::vector<std::size_t> contractHostIdx_;

  void reportTick(std::size_t idx);
  void trafficTick(net::NodeId srcNic, net::NodeId dstNic);
};

}  // namespace softqos::apps
