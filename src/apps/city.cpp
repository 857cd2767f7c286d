#include "apps/city.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "instrument/report.hpp"
#include "net/nic.hpp"
#include "obs/slo.hpp"
#include "policy/qos_contract.hpp"

namespace softqos::apps {

namespace {

constexpr double kEdgeMbit = 100.0;    // host / manager access links
constexpr double kUplinkMbit = 400.0;  // tor -> agg -> core trunks
/// Coordinator report cadence per process (violation/clear transitions
/// drawn from a per-host deterministic stream).
constexpr sim::SimDuration kReportInterval = sim::msec(250);
/// Paced intra-rack host-to-host traffic (keeps the channels and the
/// planner's affinity graph honest).
constexpr sim::SimDuration kTrafficInterval = sim::msec(25);
constexpr std::int64_t kTrafficBytes = 4096;
/// Host-manager self-telemetry publish period (to the rack manager).
constexpr sim::SimDuration kTelemetryInterval = sim::msec(500);
/// Upward republish period at every non-root domain manager.
constexpr sim::SimDuration kAggregationInterval = sim::msec(500);
/// Shard-safe channel sampling period at the rack managers.
constexpr sim::SimDuration kChannelPollInterval = sim::msec(250);
/// Contract-plane camera sessions (capped at the host count).
constexpr int kContractSessions = 3;

/// Affinity weight of one paced traffic pair: its bytes per second.
constexpr double kTrafficWeight =
    static_cast<double>(kTrafficBytes) / sim::toSeconds(kTrafficInterval);

net::ChannelConfig channelMbit(double mbit) {
  net::ChannelConfig cfg;
  cfg.bytesPerSecond = mbit * 1e6 / 8.0;
  cfg.propagationDelay = sim::msec(1);
  cfg.queueCapacityBytes = 96 * 1024;
  return cfg;
}

std::string pad2(int v) {
  return (v < 10 ? "0" : "") + std::to_string(v);
}

/// Light duty-cycle workload: enough CPU demand to move the load average
/// and exercise the scheduler without swamping the event budget.
void dutySpin(osim::Process& p) {
  if (p.terminated()) return;
  p.compute(sim::msec(2), [&p] {
    p.sleepFor(sim::msec(48), [&p] { dutySpin(p); });
  });
}

/// Receiver port for the paced intra-rack traffic. Deliberately unbound:
/// the payload exists to load the channels (and the NIC counts the drop),
/// not to reach an application.
constexpr int kTrafficPort = 9900;

/// Camera daemon for the contract plane: stays alive so liveliness probes
/// (which ask the host manager whether the pid still runs) succeed until a
/// fault kills the host.
void camIdle(osim::Process& p) {
  if (p.terminated()) return;
  p.sleepFor(sim::sec(1), [&p] { camIdle(p); });
}

}  // namespace

std::string City::hostName(int rack, int i) {
  return "h" + pad2(rack) + "-" + pad2(i);
}

std::string City::rackSeatName(int rack) { return "rdm-" + pad2(rack) + "-host"; }

std::string City::clusterSeatName(int cluster) {
  return "cdm-" + pad2(cluster) + "-host";
}

net::ShardPlanner City::affinityGraph(const CityConfig& config) {
  net::ShardPlanner planner;
  // The management plane (switch fabric, manager seats, their RPC endpoints)
  // is pinned to shard 0; its stand-in node carries roughly one rack's worth
  // of load so the packer keeps workload hosts off that shard.
  planner.addNode("@management",
                  static_cast<double>(config.racks * config.processesPerHost));
  planner.pin("@management", 0);
  for (int r = 0; r < config.racks; ++r) {
    for (int i = 0; i < config.hostsPerRack; ++i) {
      planner.addNode(hostName(r, i),
                      static_cast<double>(config.processesPerHost));
      if (config.hostsPerRack > 1) {
        planner.addEdge(hostName(r, i),
                        hostName(r, (i + 1) % config.hostsPerRack),
                        kTrafficWeight);
      }
    }
  }
  return planner;
}

City::City(CityConfig config)
    : sim(config.seed), network(sim), qorms(sim, network),
      config_(std::move(config)) {
  if (config_.racks < 1 || config_.hostsPerRack < 1 ||
      config_.processesPerHost < 1) {
    throw std::invalid_argument("City: racks/hosts/processes must be >= 1");
  }
  if (config_.tiers != 2 && config_.tiers != 3) {
    throw std::invalid_argument("City: tiers must be 2 or 3");
  }
  if (config_.tiers == 3 && config_.racksPerCluster < 1) {
    throw std::invalid_argument("City: racksPerCluster must be >= 1");
  }
  // Attach before anything is built so manager construction and every later
  // event run under sampling. Attaching is pure bookkeeping — no events, no
  // RNG draws — and the sampler is shard-safe, so it stays attached through
  // multi-worker windowed runs.
  if (config_.sampling) {
    sampler = std::make_unique<obs::TraceSampler>(sim, config_.samplerConfig);
  }
  if (config_.shards > 0) {
    if (config_.shards < 2) {
      throw std::invalid_argument("City: sharded runs need >= 2 shards");
    }
    if (config_.workers < 1 || config_.shards % config_.workers != 0) {
      throw std::invalid_argument("City: workers must divide shards");
    }
    // The shard count is the schedule; workers only drive it. Keeping the
    // total fixed while workers vary is what makes thread counts comparable
    // (and byte-identical).
    sim.configureParallel(sim::ParallelConfig{
        config_.workers, config_.shards / config_.workers});

    if (config_.usePlanner) {
      plan_ = affinityGraph(config_).plan(
          net::ShardPlanConfig{config_.shards, 1.25});
    } else {
      // Hand placement baseline: round-robin over the non-management shards,
      // ignoring traffic affinity. Cross-shard weight is computed over the
      // same edge set so the two layouts are directly comparable.
      plan_.assignment.emplace("@management", 0);
      const unsigned spread = config_.shards - 1;
      int k = 0;
      for (int r = 0; r < config_.racks; ++r) {
        for (int i = 0; i < config_.hostsPerRack; ++i, ++k) {
          plan_.assignment.emplace(
              hostName(r, i),
              static_cast<sim::ShardId>(1 + (k % spread)));
        }
      }
      if (config_.hostsPerRack > 1) {
        for (int r = 0; r < config_.racks; ++r) {
          for (int i = 0; i < config_.hostsPerRack; ++i) {
            plan_.totalEdgeWeight += kTrafficWeight;
            if (plan_.shardOf(hostName(r, i)) !=
                plan_.shardOf(hostName(r, (i + 1) % config_.hostsPerRack))) {
              plan_.crossShardWeight += kTrafficWeight;
            }
          }
        }
        if (config_.hostsPerRack == 2) {
          // The two ring directions are one undirected edge.
          plan_.totalEdgeWeight /= 2;
          plan_.crossShardWeight /= 2;
        }
      }
    }
  }

  buildTopology();
  buildManagers();
  startWorkloads();
  if (config_.contractPlane) startContractPlane();

  network.primeRoutes();
  if (config_.shards > 0) {
    sim.setLookahead(network.minCrossShardPropagation());
  }
}

void City::buildTopology() {
  const int clusters =
      config_.tiers == 3
          ? (config_.racks + config_.racksPerCluster - 1) /
                config_.racksPerCluster
          : 0;

  for (int r = 0; r < config_.racks; ++r) {
    for (int i = 0; i < config_.hostsPerRack; ++i) {
      const sim::ShardId shard = plan_.shardOf(hostName(r, i));
      sim::ShardScope scope(sim, shard);
      hosts_.push_back(std::make_unique<osim::Host>(sim, hostName(r, i)));
      hosts_.back()->setShard(shard);
    }
  }
  // Seats in rack, cluster, root order — all management, all shard 0.
  for (int r = 0; r < config_.racks; ++r) {
    seats_.push_back(std::make_unique<osim::Host>(sim, rackSeatName(r)));
  }
  for (int c = 0; c < clusters; ++c) {
    seats_.push_back(std::make_unique<osim::Host>(sim, clusterSeatName(c)));
  }
  seats_.push_back(std::make_unique<osim::Host>(sim, "root-host"));

  for (int r = 0; r < config_.racks; ++r) {
    tors_.push_back(std::make_unique<net::Switch>(network, "tor-" + pad2(r)));
  }
  for (int c = 0; c < clusters; ++c) {
    aggs_.push_back(std::make_unique<net::Switch>(network, "agg-" + pad2(c)));
  }
  core_ = std::make_unique<net::Switch>(network, "core");

  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    net::Nic& nic = network.attachHost(*hosts_[h]);
    nic.setShard(hosts_[h]->shard());
    network.link(nic, *tors_[h / static_cast<std::size_t>(config_.hostsPerRack)],
                 channelMbit(kEdgeMbit));
  }
  for (int r = 0; r < config_.racks; ++r) {
    net::Nic& nic = network.attachHost(*seats_[static_cast<std::size_t>(r)]);
    network.link(nic, *tors_[static_cast<std::size_t>(r)],
                 channelMbit(kEdgeMbit));
  }
  if (config_.tiers == 3) {
    for (int r = 0; r < config_.racks; ++r) {
      network.link(*tors_[static_cast<std::size_t>(r)],
                   *aggs_[static_cast<std::size_t>(r / config_.racksPerCluster)],
                   channelMbit(kUplinkMbit));
    }
    for (int c = 0; c < clusters; ++c) {
      net::Nic& nic = network.attachHost(
          *seats_[static_cast<std::size_t>(config_.racks + c)]);
      network.link(nic, *aggs_[static_cast<std::size_t>(c)],
                   channelMbit(kEdgeMbit));
      network.link(*aggs_[static_cast<std::size_t>(c)], *core_,
                   channelMbit(kUplinkMbit));
    }
  } else {
    for (int r = 0; r < config_.racks; ++r) {
      network.link(*tors_[static_cast<std::size_t>(r)], *core_,
                   channelMbit(kUplinkMbit));
    }
  }
  net::Nic& rootNic = network.attachHost(*seats_.back());
  network.link(rootNic, *core_, channelMbit(kEdgeMbit));
}

void City::buildManagers() {
  const int clusters = static_cast<int>(aggs_.size());

  manager::HostManagerConfig hmCfg;
  hmCfg.telemetryInterval = kTelemetryInterval;
  hmCfg.slos = obs::defaultManagementSlos();
  // Contract sessions are probed through their host's manager, so every
  // manager must know the agent's seat at construction time.
  if (config_.contractPlane) hmCfg.contractAgentHost = "root-host";
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    const int rack = static_cast<int>(h) / config_.hostsPerRack;
    hmCfg.domainManagerHost = rackSeatName(rack);
    sim::ShardScope scope(sim, hosts_[h]->shard());
    hms_.push_back(&qorms.createHostManager(*hosts_[h], hmCfg));
  }

  // Rack managers: diagnose locally, aggregate upward, sample the channels
  // through the shard-safe monitor. Leaf alarms may climb tiers-1 hops.
  for (int r = 0; r < config_.racks; ++r) {
    manager::DomainManagerConfig dmCfg;
    dmCfg.aggregationInterval = kAggregationInterval;
    dmCfg.maxEscalationHops = config_.tiers - 1;
    dmCfg.channelPollInterval = kChannelPollInterval;
    dmCfg.parentHost = config_.tiers == 3
                           ? clusterSeatName(r / config_.racksPerCluster)
                           : std::string("root-host");
    std::vector<std::string> managed;
    for (int i = 0; i < config_.hostsPerRack; ++i) {
      managed.push_back(hostName(r, i));
    }
    managed.push_back(rackSeatName(r));
    rackDms_.push_back(&qorms.createDomainManager(
        *seats_[static_cast<std::size_t>(r)], "rack-" + pad2(r), managed,
        dmCfg));
  }
  if (config_.tiers == 3) {
    for (int c = 0; c < clusters; ++c) {
      manager::DomainManagerConfig dmCfg;
      dmCfg.aggregationInterval = kAggregationInterval;
      dmCfg.maxEscalationHops = config_.tiers - 1;
      dmCfg.parentHost = "root-host";
      clusterDms_.push_back(&qorms.createDomainManager(
          *seats_[static_cast<std::size_t>(config_.racks + c)],
          "cluster-" + pad2(c), {}, dmCfg));
    }
  }
  rootDm_ = &qorms.createDomainManager(*seats_.back(), "root", {}, {});
}

void City::startWorkloads() {
  const std::size_t drivers = hosts_.size() *
                              static_cast<std::size_t>(config_.processesPerHost);
  violated_.assign(drivers, 0);
  episodeCtx_.assign(drivers, sim::TraceContext{});
  pids_.reserve(drivers);
  streams_.reserve(hosts_.size());

  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    streams_.push_back(std::make_unique<sim::RandomStream>(
        sim.stream("city:" + hosts_[h]->name())));
    sim::ShardScope scope(sim, hosts_[h]->shard());
    for (int p = 0; p < config_.processesPerHost; ++p) {
      const std::size_t idx =
          h * static_cast<std::size_t>(config_.processesPerHost) +
          static_cast<std::size_t>(p);
      auto proc = hosts_[h]->spawn(
          (p % 2 == 0 ? "web-" : "vid-") + std::to_string(p),
          [](osim::Process& pr) { dutySpin(pr); });
      pids_.push_back(proc->pid());
      // Distinct per-driver phases keep simultaneous arrivals at shared
      // managers apart, so event order is fixed by timestamps alone — the
      // property that lets a sharded run replay the serial kernel exactly.
      sim.at(kReportInterval + sim::usec(131 * (idx + 1)),
             [this, idx] { reportTick(idx); });
    }
    if (config_.hostsPerRack > 1) {
      const int rack = static_cast<int>(h) / config_.hostsPerRack;
      const int i = static_cast<int>(h) % config_.hostsPerRack;
      sim.at(kTrafficInterval + sim::usec(53 * (h + 1) + 11),
             [this, rack, i] { trafficTick(rack, i); });
    }
  }
}

void City::reportTick(std::size_t idx) {
  const std::size_t h = idx / static_cast<std::size_t>(config_.processesPerHost);
  const int p = static_cast<int>(idx %
                                 static_cast<std::size_t>(config_.processesPerHost));
  sim::RandomStream& rng = *streams_[h];

  // Coordinator semantics: reports carry *transitions* only. The draw
  // happens every tick regardless of outcome so the stream stays aligned.
  const bool flip = rng.chance(violated_[idx] ? 0.5 : 0.25);
  const double metric = rng.uniform(0.0, 1.0);
  if (flip) {
    violated_[idx] = violated_[idx] ? 0 : 1;
    instrument::ViolationReport report;
    report.policyId = "NotifyQoSViolation";
    report.pid = static_cast<std::uint32_t>(pids_[idx]);
    report.hostName = hosts_[h]->name();
    report.executable = p % 2 == 0 ? "WebServer" : "VideoPlayer";
    report.userRole = p % 2 == 0 ? "silver" : "gold";
    report.violated = violated_[idx] != 0;
    report.metrics.emplace_back(
        "frame_rate", report.violated ? 18.0 + 8.0 * metric : 28.0 + 6.0 * metric);
    // Causal tracing (sampling on): the driver plays the coordinator's part,
    // opening an episode trace at the violation and closing it at the clear.
    // Everything the managers do with the report — diagnosis, rule firings,
    // actuations, escalation into the domain tree — nests under it via
    // report.context, exactly like the two-host testbed's episodes.
    sim::SpanObserver* o = sim.observer();
    if (o != nullptr) {
      if (report.violated) {
        episodeCtx_[idx] =
            o->beginTrace(sim.now(), "episode:frame_rate", hosts_[h]->name());
        o->annotate(episodeCtx_[idx], "pid", std::to_string(report.pid));
        o->instant(sim.now(), episodeCtx_[idx], "violation",
                   hosts_[h]->name());
      } else if (episodeCtx_[idx].valid()) {
        o->instant(sim.now(), episodeCtx_[idx], "recovered",
                   hosts_[h]->name());
      }
      report.context = episodeCtx_[idx];
    }
    hms_[h]->handleReport(report);
    if (o != nullptr && !report.violated && episodeCtx_[idx].valid()) {
      o->endSpan(sim.now(), episodeCtx_[idx]);
      episodeCtx_[idx] = sim::TraceContext{};
    }
  }
  sim.after(kReportInterval, [this, idx] { reportTick(idx); });
}

void City::trafficTick(int rack, int i) {
  osim::Message m;
  m.kind = "pay";
  m.bytes = kTrafficBytes;
  network.sendToHost(hostName(rack, i),
                     hostName(rack, (i + 1) % config_.hostsPerRack),
                     kTrafficPort, std::move(m));
  sim.after(kTrafficInterval, [this, rack, i] { trafficTick(rack, i); });
}

std::uint64_t City::run(sim::SimDuration span) {
  const std::uint64_t executed = sim.runUntil(sim.now() + span);
  // The flush point is a sim time (now), identical at every shard and
  // worker count, so the sampler resolves the same retained set everywhere.
  if (sampler) sampler->flush();
  return executed;
}

void City::finishSampling() {
  if (sampler) sampler->finalFlush();
}

void City::startContractPlane() {
  flightRecorder = std::make_unique<obs::FlightRecorder>(sim);
  qorms.agent().setFlightRecorder(flightRecorder.get());

  distribution::RepositoryService& repo = qorms.repository();
  repo.addExecutable(policy::ExecutableInfo{"CamFeed", "/opt/cam/feed", {}});
  repo.addApplication(policy::ApplicationInfo{"CityCam", {"CamFeed"}});
  policy::ContractSpec offer;
  offer.name = "cam-offer";
  offer.executable = "CamFeed";
  offer.hasOffer = true;
  offer.offer = policy::parseQosOffer(
      "deadline=50ms liveliness=automatic:300ms history=4 strength=5");
  repo.addContract(offer);
  policy::ContractSpec ask;
  ask.name = "cam-ask";
  ask.application = "CityCam";
  ask.hasRequest = true;
  ask.request = policy::parseQosRequest("deadline<=100ms");
  repo.addContract(ask);

  // The agent's RPC endpoint (renegotiate, probes, event notifications)
  // seats on the root host — shard 0, beside the repository it consults.
  qorms.enableContractPlane(*seats_.back());

  // One camera daemon per session, spread rack-first over the workload
  // hosts. Pids are per-host and the agent keys sessions by pid
  // domain-wide, so each host pads its pid space to keep the daemons' pids
  // distinct (colliding pids would read as re-registrations).
  const int sessions = std::min(kContractSessions, hostCount());
  for (int i = 0; i < sessions; ++i) {
    const std::size_t h = static_cast<std::size_t>(
        (i % config_.racks) * config_.hostsPerRack +
        (i / config_.racks) % config_.hostsPerRack);
    contractHostIdx_.push_back(h);
    osim::Host& host = *hosts_[h];
    sim::ShardScope scope(sim, host.shard());
    for (int pad = 0; pad < i; ++pad) {
      host.spawn("pad", [](osim::Process& p) { camIdle(p); });
    }
    auto daemon = host.spawn("cam-daemon",
                             [](osim::Process& p) { camIdle(p); });
    contractPids_.push_back(daemon->pid());
    camRegistries_.push_back(std::make_unique<instrument::SensorRegistry>());
    camCoordinators_.push_back(std::make_unique<instrument::Coordinator>(
        sim, host.name(), daemon->pid(), "CamFeed", *camRegistries_.back(),
        [](const instrument::ViolationReport&) { return true; }));
  }
  // Registrations run on shard 0, where the agent (and every event it
  // schedules — probes, retries) is seated. Strength descends with i, so
  // session 0 owns the contract until a fault takes it out.
  for (int i = 0; i < sessions; ++i) {
    distribution::PolicyAgent::Registration reg;
    reg.pid = static_cast<std::uint32_t>(contractPids_[static_cast<std::size_t>(i)]);
    reg.application = "CityCam";
    reg.executable = "CamFeed";
    reg.coordinator = camCoordinators_[static_cast<std::size_t>(i)].get();
    reg.hostName = hosts_[contractHostIdx_[static_cast<std::size_t>(i)]]->name();
    reg.ownershipStrength = 10 * (sessions - i);
    qorms.agent().registerProcess(reg);
  }
}

std::string City::digest() const {
  std::ostringstream out;
  out << "t=" << sim.now() << '\n';
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    manager::QoSHostManager& hm = *hms_[h];
    out << "hm:" << hosts_[h]->name() << ":r=" << hm.reportsReceived()
        << ",b=" << hm.boostsApplied() << ",d=" << hm.decaysApplied()
        << ",e=" << hm.escalationsSent() << ",g=" << hm.rtGrantsIssued()
        << ",m=" << hm.memoryGrowths() << ",rs=" << hm.restartsPerformed()
        << ",tp=" << hm.telemetryPublishes()
        << ",f=" << hm.engine().totalFirings()
        << ",load=" << hosts_[h]->loadAverage() << '\n';
  }
  auto dmRow = [&out](const manager::QoSDomainManager& dm) {
    out << "dm:" << dm.name() << ":er=" << dm.escalationsReceived()
        << ",fw=" << dm.forwardsSent() << ",sb=" << dm.serverBoostsSent()
        << ",ag=" << dm.aggregatePublishes()
        << ",tf=" << dm.telemetryFramesReceived();
    for (const auto& [kind, count] : dm.diagnosisCounts()) {
      out << ',' << kind << '=' << count;
    }
    out << '\n';
  };
  for (const auto* dm : rackDms_) dmRow(*dm);
  for (const auto* dm : clusterDms_) dmRow(*dm);
  dmRow(*rootDm_);
  out << "net:unreachable=" << network.unreachableDrops() << '\n';
  return out.str();
}

}  // namespace softqos::apps
