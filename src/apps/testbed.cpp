#include "apps/testbed.hpp"

#include <algorithm>

#include "net/nic.hpp"
#include "obs/slo.hpp"

namespace softqos::apps {

namespace {

constexpr double kEdgeMbit = 100.0;  // host and management access links
constexpr double kPolicyJitterMax = 1.25;  // video policy: jitter < 1.25

net::ChannelConfig channelMbit(double mbit) {
  net::ChannelConfig cfg;
  cfg.bytesPerSecond = mbit * 1e6 / 8.0;
  cfg.propagationDelay = sim::msec(1);
  cfg.queueCapacityBytes = 96 * 1024;
  return cfg;
}

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : sim(config.seed),
      network(sim),
      clientHost(sim, "client-host"),
      serverHost(sim, "server-host"),
      mgmtHost(sim, "mgmt-host"),
      swA(network, "switch-a"),
      swB(network, "switch-b"),
      swC(network, "switch-c"),
      sink(network, "traffic-sink"),
      cross(network, "cross-traffic",
            net::TrafficConfig{.bytesPerSecond = 0,
                               .packetBytes = 1500,
                               .onOff = false,
                               .onMean = sim::msec(500),
                               .offMean = sim::msec(500)}),
      qorms(sim, network),
      clientLoad(clientHost, "client-load"),
      serverLoad(serverHost, "server-load"),
      config_(std::move(config)) {
  // Attach the sampler before any component is constructed so every event
  // runs under tracing. Attaching is pure bookkeeping: no events, no RNG
  // draws. Keeping every trace is a retention policy: a baseline draw that
  // always succeeds and no cap on retained spans.
  if (config_.observability) {
    obs::SamplerConfig keepAll;
    keepAll.baselineProbability = 1.0;
    keepAll.maxRetainedSpans = 0;
    sampler = std::make_unique<obs::TraceSampler>(sim, keepAll);
  }

  if (config_.parallelShards > 1) {
    // One worker thread, N shards: the windowed conservative engine with the
    // exact schedule a multi-threaded run would execute, minus the data
    // races the domain manager's whole-fabric channel polling would cause.
    sim.configureParallel(
        sim::ParallelConfig{1, config_.parallelShards});
    clientShard_ = 1;
    serverShard_ = std::min<unsigned>(2, config_.parallelShards - 1);
    clientHost.setShard(clientShard_);
    serverHost.setShard(serverShard_);
  }

  net::Nic& clientNic = network.attachHost(clientHost);
  net::Nic& serverNic = network.attachHost(serverHost);
  net::Nic& mgmtNic = network.attachHost(mgmtHost);
  clientNic.setShard(clientShard_);
  serverNic.setShard(serverShard_);

  network.link(clientNic, swA, channelMbit(kEdgeMbit));
  // The management host reaches both switches directly (a management VLAN):
  // manager-to-manager RPC must not share the experiment bottleneck, or a
  // congested fabric would make every healthy server look dead.
  network.link(mgmtNic, swA, channelMbit(kEdgeMbit));
  network.link(mgmtNic, swB, channelMbit(kEdgeMbit));
  network.link(serverNic, swB, channelMbit(kEdgeMbit));
  network.link(swA, swB, channelMbit(config_.bottleneckMbit));
  if (config_.redundantPath) {
    // A longer but well-provisioned alternate route the domain manager can
    // fail over to when it diagnoses congestion on the primary link.
    network.link(swA, swC, channelMbit(kEdgeMbit));
    network.link(swC, swB, channelMbit(kEdgeMbit));
  }
  // Cross traffic is injected at swB and sinks behind swA, sharing the
  // server->client direction of the bottleneck with the video stream.
  network.link(cross, swB, channelMbit(kEdgeMbit));
  network.link(sink, swA, channelMbit(kEdgeMbit));

  if (config_.withManagers) {
    manager::HostManagerConfig hmCfg;
    hmCfg.domainManagerHost = mgmtHost.name();
    hmCfg.domainManagerPort = 7100;
    hmCfg.factTtl = config_.factTtl;
    hmCfg.escalationMaxAttempts = config_.rpcMaxAttempts;
    hmCfg.telemetryInterval = config_.telemetryInterval;
    if (config_.contractPlane) hmCfg.contractAgentHost = mgmtHost.name();
    if (config_.telemetryInterval > 0) {
      hmCfg.slos = config_.telemetrySlos.empty() ? obs::defaultManagementSlos()
                                                 : config_.telemetrySlos;
    }
    {
      // Each host manager (and its RPC plumbing + metric handles) lives on
      // its host's shard; construction-time scheduling lands there too.
      sim::ShardScope scope(sim, clientShard_);
      clientHm = &qorms.createHostManager(clientHost, hmCfg);
    }
    {
      sim::ShardScope scope(sim, serverShard_);
      serverHm = &qorms.createHostManager(serverHost, hmCfg);
    }
    manager::DomainManagerConfig dmCfg;
    dmCfg.heartbeatInterval = config_.heartbeatInterval;
    dmCfg.rpcMaxAttempts = config_.rpcMaxAttempts;
    dm = &qorms.createDomainManager(mgmtHost, "domain-a",
                                    {clientHost.name(), serverHost.name(),
                                     mgmtHost.name()},
                                    dmCfg);

    seedVideoModel(qorms.repository());
    qorms.admin().addPolicyText(
        videoPolicyText("NotifyQoSViolation", config_.policyTargetFps,
                        config_.policyTolUp, config_.policyTolDown,
                        kPolicyJitterMax),
        "VideoConference", "");

    if (config_.contractPlane) {
      seedVideoContracts(qorms.repository());
      // The agent's RPC endpoint seats on the management host (shard 0,
      // alongside the repository it consults).
      qorms.enableContractPlane(mgmtHost);
    }
  }

  if (config_.parallelShards > 1) {
    // Routes must be primed before the first window (lazy recompute is not
    // shard-safe) and the lookahead is the minimum propagation delay across
    // a shard boundary — with this topology, the 1 ms channel latency.
    network.primeRoutes();
    sim.setLookahead(network.minCrossShardPropagation());
  }
}

VideoSession& Testbed::startVideo(const std::string& role) {
  VideoConfig vc = config_.video;
  {
    // The session spans both hosts; place its events on the client's shard
    // (sensing and display happen there). Valid because testbed sharding is
    // single-worker: see TestbedConfig::parallelShards.
    sim::ShardScope scope(sim, clientShard_);
    video = std::make_unique<VideoSession>(sim, network, serverHost, clientHost,
                                           "video", vc);
    if (config_.withManagers) {
      video->instrument(qorms.agent(), "VideoConference", role);
    }
  }
  if (config_.withManagers) {
    dm->registerService("VideoApplication", serverHost.name(),
                        video->serverPid());
    serverHm->setRestartHandler(
        [this](osim::Pid) { return video->respawnServer(); });
  }
  return *video;
}

void Testbed::setCrossTraffic(double mbit) {
  if (mbit <= 0) {
    cross.stop();
    return;
  }
  cross.setRate(mbit * 1e6 / 8.0);
  if (!cross.running()) cross.start(sink.id());
}

double Testbed::measureFps(sim::SimDuration window) {
  const std::uint64_t before = video ? video->framesDisplayed() : 0;
  sim.runUntil(sim.now() + window);
  const std::uint64_t after = video ? video->framesDisplayed() : 0;
  return static_cast<double>(after - before) / sim::toSeconds(window);
}

net::Channel* Testbed::bottleneck() {
  return network.channel(swB.id(), swA.id());
}

}  // namespace softqos::apps
