// The canonical two-host testbed used by the examples, integration tests and
// benchmarks: a video client host and a video server host joined by two
// switches, a management host seating the QoS Domain Manager, competing CPU
// load on the client, and optional cross traffic congesting the inter-switch
// link.
//
//   clientHost --- swA ========== swB --- serverHost
//       |           |  (bottleneck)  |
//   mgmtHost -------+            sink/cross
#pragma once

#include <memory>
#include <string>

#include "apps/loadgen.hpp"
#include "apps/video.hpp"
#include "apps/video_model.hpp"
#include "distribution/qorms.hpp"
#include "net/switch.hpp"
#include "net/traffic.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"

namespace softqos::apps {

struct TestbedConfig {
  std::uint64_t seed = 1;
  double bottleneckMbit = 10.0;   // inter-switch link
  bool redundantPath = false;     // add swC as an alternate swA<->swB route
  VideoConfig video{};
  bool withManagers = true;       // false: "normal Solaris scheduling"
  double policyTargetFps = 28.0;
  double policyTolUp = 4.0;
  double policyTolDown = 3.0;
  // Self-healing knobs for chaos experiments. All default off/single-shot so
  // a testbed without them behaves byte-identically to earlier builds.
  sim::SimDuration heartbeatInterval = 0;  // DM liveness probing (0 = off)
  sim::SimDuration factTtl = 0;            // HM stale-fact expiry (0 = off)
  int rpcMaxAttempts = 1;                  // management-RPC retry budget
  /// Attach an obs::TraceSampler that keeps every trace: end-to-end causal
  /// tracing of detection -> diagnosis -> actuation -> recovery chains, on
  /// the serial kernel or across parallelShards. Off by default — a testbed
  /// without it runs byte-identically to earlier builds.
  bool observability = false;
  /// Arm streaming self-telemetry on both host managers: windowed rollups of
  /// the management plane's own behaviour, published to the domain manager
  /// each interval and guarded by obs::defaultManagementSlos(). 0 (default)
  /// keeps runs byte-identical to earlier builds.
  sim::SimDuration telemetryInterval = 0;
  /// Override the objectives armed with telemetry (empty: the defaults).
  std::vector<obs::SloObjective> telemetrySlos{};
  /// Shard the testbed across `parallelShards` event queues driven by the
  /// windowed conservative engine (shard 0: management host + switch fabric;
  /// shard 1: client host world; shard 2: server host world). 1 (default)
  /// keeps the historical serial kernel, byte-identical to earlier builds.
  /// This two-host video testbed keeps its windows on a single worker
  /// thread regardless of shard count: the server's session loop runs on
  /// the client's shard by construction (see VideoSession), so its shards
  /// are not worker-clean, and a single worker also keeps the domain
  /// manager's inline fabric sweep legal. Multi-threaded execution lives in
  /// the City testbed (apps/city.hpp), whose host-local workloads are.
  unsigned parallelShards = 1;
  /// Arm the QoS contract plane: seed the video offer/request contracts,
  /// run requested-vs-offered admission in the policy agent (its
  /// "renegotiate" RPC seats on the management host, port 7200), push the
  /// contract rules to both host managers and let rules renegotiate session
  /// tiers under load. Off by default — byte-identical to earlier builds.
  bool contractPlane = false;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // Exposed plumbing (constructed in this order).
  sim::Simulation sim;
  net::Network network;
  osim::Host clientHost;
  osim::Host serverHost;
  osim::Host mgmtHost;
  net::Switch swA;
  net::Switch swB;
  net::Switch swC;  // only linked when config.redundantPath
  net::TrafficSink sink;
  net::TrafficSource cross;
  distribution::Qorms qorms;
  CpuLoadGenerator clientLoad;
  CpuLoadGenerator serverLoad;

  manager::QoSHostManager* clientHm = nullptr;  // set when withManagers
  manager::QoSHostManager* serverHm = nullptr;
  manager::QoSDomainManager* dm = nullptr;
  std::unique_ptr<VideoSession> video;
  /// Non-null when config.observability; attached to `sim` for its lifetime.
  /// Its retention keeps every trace; call sampler->finalFlush() once the
  /// run is over, before reading or exporting the traces.
  std::unique_ptr<obs::TraceSampler> sampler;

  [[nodiscard]] const TestbedConfig& config() const { return config_; }

  /// Create the video session (and, with managers enabled, instrument it and
  /// register the service binding with the domain manager).
  VideoSession& startVideo(const std::string& role = "silver");

  /// Congest the bottleneck with cross traffic at `mbit` (0 stops it).
  void setCrossTraffic(double mbit);

  /// Run the simulation for `window` and return the client's delivered
  /// frames/second over that window.
  double measureFps(sim::SimDuration window);

  /// The bottleneck channel in the server->client direction.
  [[nodiscard]] net::Channel* bottleneck();

  /// Shards the host worlds landed on (0 when not sharded).
  [[nodiscard]] sim::ShardId clientShard() const { return clientShard_; }
  [[nodiscard]] sim::ShardId serverShard() const { return serverShard_; }

 private:
  TestbedConfig config_;
  sim::ShardId clientShard_ = 0;
  sim::ShardId serverShard_ = 0;
};

}  // namespace softqos::apps
