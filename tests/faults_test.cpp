// Fault injection and self-healing: link faults (loss, corruption, cuts,
// delay), host and manager-daemon crash/restart, RPC retry/backoff with
// late-reply suppression and duplicate execution guards, fact TTL expiry,
// coordinator store-and-forward buffering, and the domain manager's
// heartbeat-based host-failure detection — all byte-deterministic.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/testbed.hpp"
#include "apps/video_model.hpp"
#include "distribution/admin.hpp"
#include "distribution/policy_agent.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "instrument/sensors.hpp"
#include "net/nic.hpp"
#include "net/rpc.hpp"
#include "net/switch.hpp"

namespace softqos {
namespace {

net::ChannelConfig slowLink() {
  net::ChannelConfig cfg;
  cfg.bytesPerSecond = 1e6;
  cfg.propagationDelay = sim::msec(1);
  cfg.queueCapacityBytes = 20000;
  return cfg;
}

struct TwoHosts : ::testing::Test {
  sim::Simulation s{1};
  net::Network net{s};
  osim::Host ha{s, "a"};
  osim::Host hb{s, "b"};
  net::Switch sw{net, "sw"};

  TwoHosts() {
    net::Nic& na = net.attachHost(ha);
    net::Nic& nb = net.attachHost(hb);
    net.link(na, sw, slowLink());
    net.link(nb, sw, slowLink());
  }

  net::Channel* chanAtoSw() {
    return net.channel(net.nicForHost("a")->id(), sw.id());
  }

  /// Plumb a->b and count delivered messages.
  std::shared_ptr<osim::Socket> sender;
  int delivered = 0;
  void plumb() {
    sender = ha.createSocket();
    auto sb = hb.createSocket(1 << 20);
    net.connect(sender, ha, 100, sb, hb, 200);
    sb->setDaemonReceiver([this](osim::Message) { ++delivered; });
  }
  void sendOne(std::int64_t bytes = 1000) {
    osim::Message m;
    m.bytes = bytes;
    sender->send(std::move(m));
  }
};

// ---- Channel fault profiles ----

TEST_F(TwoHosts, LossRateDropsSomePacketsDeterministically) {
  plumb();
  sim::RandomStream rng = s.stream("faults:link");
  net::LinkFaultProfile profile;
  profile.lossRate = 0.5;
  chanAtoSw()->setFaultProfile(profile, &rng);
  for (int i = 0; i < 100; ++i) s.after(sim::msec(10) * i, [this] { sendOne(); });
  s.runAll();
  const std::uint64_t drops = chanAtoSw()->faultDrops();
  EXPECT_GT(drops, 20u);
  EXPECT_LT(drops, 80u);
  EXPECT_EQ(delivered, static_cast<int>(100 - drops));
}

TEST_F(TwoHosts, LinkCutStopsDeliveryUntilHealed) {
  plumb();
  sendOne();
  s.runAll();
  ASSERT_EQ(delivered, 1);

  net::LinkFaultProfile down;
  down.down = true;
  chanAtoSw()->setFaultProfile(down, nullptr);
  for (int i = 0; i < 5; ++i) sendOne();
  s.runAll();
  EXPECT_EQ(delivered, 1);  // nothing crosses a cut link
  const std::uint64_t dropsDuringCut = chanAtoSw()->faultDrops();
  EXPECT_EQ(dropsDuringCut, 5u);

  chanAtoSw()->setFaultProfile(net::LinkFaultProfile{}, nullptr);
  sendOne();
  s.runAll();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(chanAtoSw()->faultDrops(), dropsDuringCut);  // monotone, no new drops
}

TEST_F(TwoHosts, CorruptionIsDroppedAtReassembly) {
  plumb();
  sim::RandomStream rng = s.stream("faults:link");
  net::LinkFaultProfile profile;
  profile.corruptRate = 1.0;
  chanAtoSw()->setFaultProfile(profile, &rng);
  sendOne(4000);  // multiple fragments; any corrupt one poisons the message
  s.runAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_GT(chanAtoSw()->faultCorruptions(), 0u);
  EXPECT_EQ(net.nicForHost("b")->corruptDrops(), 1u);
}

TEST_F(TwoHosts, ExtraDelayPostponesArrival) {
  plumb();
  auto measure = [&] {
    delivered = 0;
    sendOne();
    const sim::SimTime start = s.now();
    s.runAll();
    return s.now() - start;
  };
  const sim::SimDuration clean = measure();
  net::LinkFaultProfile profile;
  profile.extraDelay = sim::msec(50);
  chanAtoSw()->setFaultProfile(profile, nullptr);
  const sim::SimDuration degraded = measure();
  EXPECT_GE(degraded - clean, sim::msec(49));
}

TEST_F(TwoHosts, QueueOverflowAndPartitionCountersAreMonotone) {
  plumb();
  // Drop-tail overflow: offer far more than the 20 KB queue absorbs at once.
  for (int i = 0; i < 60; ++i) sendOne(1000);
  s.runAll();
  const std::uint64_t tailDrops = chanAtoSw()->drops();
  EXPECT_GT(tailDrops, 0u);
  EXPECT_LT(delivered, 60);

  // Admin-disabled link: routing finds no path, Network counts the drop.
  ASSERT_TRUE(net.setLinkEnabled(net.nicForHost("a")->id(), sw.id(), false));
  const std::uint64_t unreachableBefore = net.unreachableDrops();
  sendOne();
  s.runAll();
  EXPECT_GT(net.unreachableDrops(), unreachableBefore);
  EXPECT_GE(chanAtoSw()->drops(), tailDrops);  // never decreases
}

TEST_F(TwoHosts, CrashedHostDropsInboundAtNic) {
  plumb();
  ASSERT_TRUE(hb.crash());
  sendOne();
  s.runAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_GT(net.nicForHost("b")->hostDownDrops(), 0u);
  ASSERT_TRUE(hb.restart());
  sendOne();
  s.runAll();
  EXPECT_EQ(delivered, 1);
}

// ---- RPC retry / late replies / duplicate suppression ----

struct RpcFixture : TwoHosts {
  net::RpcEndpoint ea{net, ha, 7000};
  net::RpcEndpoint eb{net, hb, 7000};
};

TEST_F(RpcFixture, RetriesSurviveTransientDaemonOutage) {
  eb.setHandler("ping", [](const std::string&, net::RpcEndpoint::Responder r) {
    r("pong");
  });
  eb.setEnabled(false);  // daemon down; first attempts vanish
  s.after(sim::msec(250), [this] { eb.setEnabled(true); });

  net::RpcEndpoint::CallOptions opts;
  opts.timeout = sim::msec(100);
  opts.maxAttempts = 6;
  bool ok = false;
  std::string reply;
  ea.call("b", 7000, "ping", "", [&](bool o, std::string r) {
    ok = o;
    reply = std::move(r);
  }, opts);
  s.runAll();
  EXPECT_TRUE(ok);
  EXPECT_EQ(reply, "pong");
  EXPECT_GE(ea.retries(), 1u);
  EXPECT_GT(eb.droppedWhileDisabled(), 0u);
  EXPECT_EQ(ea.timeouts(), 0u);
}

TEST_F(RpcFixture, ExhaustedRetriesFailExactlyOnce) {
  net::RpcEndpoint::CallOptions opts;
  opts.timeout = sim::msec(50);
  opts.maxAttempts = 3;
  int fires = 0;
  bool lastOk = true;
  ea.call("no-such-host", 7000, "x", "", [&](bool o, std::string) {
    ++fires;
    lastOk = o;
  }, opts);
  s.runAll();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(lastOk);
  EXPECT_EQ(ea.retries(), 2u);  // attempts 2 and 3
  EXPECT_EQ(ea.timeouts(), 1u);
}

TEST_F(RpcFixture, LateReplyAfterTimeoutIsDiscarded) {
  // Regression: a reply landing after the caller's timeout must not fire the
  // continuation a second time or leave pending-call state behind.
  eb.setHandler("slow", [this](const std::string&,
                               net::RpcEndpoint::Responder respond) {
    s.after(sim::msec(300), [respond] { respond("too late"); });
  });
  int fires = 0;
  bool ok = true;
  ea.call("b", 7000, "slow", "", [&](bool o, std::string) {
    ++fires;
    ok = o;
  }, sim::msec(100));
  s.runAll();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(ok);
  EXPECT_EQ(ea.lateReplies(), 1u);

  // The endpoint stays fully usable: a fresh call round-trips.
  eb.setHandler("echo", [](const std::string& b, net::RpcEndpoint::Responder r) {
    r(b);
  });
  std::string reply;
  ea.call("b", 7000, "echo", "still alive", [&](bool, std::string r) {
    reply = std::move(r);
  });
  s.runAll();
  EXPECT_EQ(reply, "still alive");
  EXPECT_EQ(ea.lateReplies(), 1u);
}

TEST_F(RpcFixture, RetriedRequestExecutesHandlerOnce) {
  // The handler answers slower than the caller's per-attempt timeout, so the
  // retry reaches the callee as a duplicate of an executed request: it must
  // not run the handler again, and the cached response completes the call.
  int executions = 0;
  eb.setHandler("boost", [&, this](const std::string&,
                                   net::RpcEndpoint::Responder respond) {
    ++executions;
    s.after(sim::msec(150), [respond] { respond("done"); });
  });
  net::RpcEndpoint::CallOptions opts;
  opts.timeout = sim::msec(100);
  opts.maxAttempts = 4;
  opts.backoffBase = sim::msec(20);  // retry lands while the handler runs
  opts.backoffMax = sim::msec(20);
  bool ok = false;
  std::string reply;
  ea.call("b", 7000, "boost", "", [&](bool o, std::string r) {
    ok = o;
    reply = std::move(r);
  }, opts);
  s.runAll();
  EXPECT_TRUE(ok);
  EXPECT_EQ(reply, "done");
  EXPECT_EQ(executions, 1);
  EXPECT_GE(eb.duplicateRequests(), 1u);
}

TEST_F(RpcFixture, DisabledCallerFailsCallsAsynchronously) {
  ea.setEnabled(false);
  bool fired = false;
  bool ok = true;
  ea.call("b", 7000, "x", "", [&](bool o, std::string) {
    fired = true;
    ok = o;
  });
  EXPECT_FALSE(fired);  // asynchronous even when doomed
  s.runAll();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(ok);
}

// ---- Coordinator store-and-forward across manager outages ----

struct CoordinatorOutage : ::testing::Test {
  sim::Simulation s{1};
  distribution::RepositoryService repo;
  distribution::PolicyAgent agent{s, repo};
  instrument::SensorRegistry registry;
  std::unique_ptr<instrument::Coordinator> coord;
  instrument::GaugeSensor* fps = nullptr;
  bool managerUp = true;
  std::vector<instrument::ViolationReport> received;

  void SetUp() override {
    apps::seedVideoModel(repo);
    distribution::AdminTool admin(repo);
    admin.addPolicyText(apps::defaultVideoPolicyText(), "VideoConference", "");
    auto f = std::make_shared<instrument::GaugeSensor>(s, "fps_sensor",
                                                       "frame_rate");
    auto j = std::make_shared<instrument::GaugeSensor>(s, "jitter_sensor",
                                                       "jitter_rate");
    auto b = std::make_shared<instrument::GaugeSensor>(s, "buffer_sensor",
                                                       "buffer_size");
    fps = f.get();
    jitter_ = j.get();
    buffer_ = b.get();
    registry.addSensor(std::move(f));
    registry.addSensor(std::move(j));
    registry.addSensor(std::move(b));
    coord = std::make_unique<instrument::Coordinator>(
        s, "client-host", 1, "VideoApplication", registry,
        [this](const instrument::ViolationReport& r) {
          if (!managerUp) return false;
          received.push_back(r);
          return true;
        });
    coord->setRepeatInterval(0);
    distribution::PolicyAgent::Registration reg;
    reg.pid = 1;
    reg.application = "VideoConference";
    reg.executable = "VideoApplication";
    reg.coordinator = coord.get();
    agent.registerProcess(reg);
    jitter_->set(0.2);
    buffer_->set(8000.0);
  }

  instrument::GaugeSensor* jitter_ = nullptr;
  instrument::GaugeSensor* buffer_ = nullptr;
};

TEST_F(CoordinatorOutage, ReportsBufferWhileManagerDownAndFlushOnRecovery) {
  managerUp = false;
  // Three violation episodes while the manager is unreachable.
  for (int i = 0; i < 3; ++i) {
    s.after(sim::msec(20) * (2 * i), [this] { fps->set(10.0); });
    s.after(sim::msec(20) * (2 * i + 1), [this] { fps->set(28.0); });
  }
  s.runUntil(sim::msec(200));
  EXPECT_TRUE(received.empty());
  EXPECT_GE(coord->bufferedReports(), 3u);  // violations + clears queue up

  managerUp = true;
  s.runUntil(sim::sec(2));
  EXPECT_EQ(coord->bufferedReports(), 0u);
  EXPECT_GE(received.size(), 3u);
  EXPECT_EQ(coord->retransmittedReports(), received.size());
  // Order is preserved: the first buffered report is the first delivered.
  EXPECT_TRUE(received.front().violated);
}

TEST_F(CoordinatorOutage, BufferOverflowDropsOldestFirst) {
  managerUp = false;
  for (int i = 0; i < 80; ++i) {
    s.after(sim::msec(10) * (2 * i), [this] { fps->set(10.0); });
    s.after(sim::msec(10) * (2 * i + 1), [this] { fps->set(28.0); });
  }
  s.runUntil(sim::sec(3));
  EXPECT_LE(coord->bufferedReports(), 64u);
  EXPECT_GT(coord->bufferOverflows(), 0u);
}

// ---- Fault plan / injector on the canonical testbed ----

apps::TestbedConfig chaosConfig(std::uint64_t seed) {
  apps::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.heartbeatInterval = sim::msec(200);
  cfg.factTtl = sim::sec(5);
  cfg.rpcMaxAttempts = 3;
  return cfg;
}

void registerTestbed(faults::FaultInjector& injector, apps::Testbed& tb) {
  injector.registerHost(tb.clientHost);
  injector.registerHost(tb.serverHost);
  injector.registerHost(tb.mgmtHost);
  injector.registerHostManager(tb.clientHost.name(), *tb.clientHm);
  injector.registerHostManager(tb.serverHost.name(), *tb.serverHm);
  injector.registerDomainManager(tb.mgmtHost.name(), *tb.dm);
}

TEST(FaultPlan, DescribeListsTimelineInOrder) {
  faults::FaultPlan plan;
  net::LinkFaultProfile lossy;
  lossy.lossRate = 0.25;
  plan.hostCrash(sim::sec(10), "server-host")
      .hostRestart(sim::sec(18), "server-host")
      .linkDegrade(sim::sec(20), "switch-a", "switch-b", lossy)
      .linkCut(sim::sec(25), "switch-a", "switch-b")
      .linkHeal(sim::sec(30), "switch-a", "switch-b");
  EXPECT_EQ(plan.size(), 5u);
  const std::string text = plan.describe();
  EXPECT_NE(text.find("host-crash server-host"), std::string::npos);
  EXPECT_NE(text.find("link-cut switch-a<->switch-b"), std::string::npos);
  EXPECT_LT(text.find("host-crash"), text.find("link-cut"));
}

TEST(FaultInjector, UnknownTargetsCountAsMisses) {
  apps::Testbed tb(chaosConfig(1));
  faults::FaultInjector injector(tb.sim, tb.network);
  faults::FaultPlan plan;
  plan.hostCrash(sim::msec(10), "no-such-host")
      .linkCut(sim::msec(20), "switch-a", "no-such-switch");
  injector.arm(plan);
  tb.sim.runUntil(sim::msec(100));
  EXPECT_EQ(injector.injected(), 0u);
  EXPECT_EQ(injector.misses(), 2u);
}

TEST(FaultInjector, HostCrashTakesColocatedManagerDown) {
  apps::Testbed tb(chaosConfig(1));
  tb.startVideo();
  faults::FaultInjector injector(tb.sim, tb.network);
  registerTestbed(injector, tb);
  faults::FaultPlan plan;
  plan.hostCrash(sim::sec(2), "server-host")
      .hostRestart(sim::sec(4), "server-host");
  injector.arm(plan);

  tb.sim.runUntil(sim::sec(3));
  EXPECT_FALSE(tb.serverHost.isUp());
  EXPECT_TRUE(tb.serverHm->isCrashed());
  EXPECT_EQ(tb.serverHost.liveProcessCount(), 0u);

  tb.sim.runUntil(sim::sec(5));
  EXPECT_TRUE(tb.serverHost.isUp());
  EXPECT_FALSE(tb.serverHm->isCrashed());
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(injector.misses(), 0u);
}

TEST(Heartbeat, DetectsHostFailureAndRecovery) {
  apps::Testbed tb(chaosConfig(7));
  tb.startVideo();
  faults::FaultInjector injector(tb.sim, tb.network);
  registerTestbed(injector, tb);
  faults::FaultPlan plan;
  plan.hostCrash(sim::sec(5), "server-host")
      .hostRestart(sim::sec(10), "server-host");
  injector.arm(plan);

  tb.sim.runUntil(sim::sec(4));
  EXPECT_GT(tb.dm->heartbeatsSent(), 0u);
  EXPECT_FALSE(tb.dm->hostMarkedDown("server-host"));
  // mgmt-host runs no Host Manager: never answered, so never marked dead.
  EXPECT_FALSE(tb.dm->hostMarkedDown("mgmt-host"));

  tb.sim.runUntil(sim::sec(8));
  EXPECT_TRUE(tb.dm->hostMarkedDown("server-host"));
  EXPECT_GE(tb.dm->hostFailuresDetected(), 1u);
  EXPECT_NE(tb.dm->engine().facts().findWhere(
                "host-failure", {{"host", rules::Value::symbol("server-host")}}),
            nullptr);

  tb.sim.runUntil(sim::sec(15));
  EXPECT_FALSE(tb.dm->hostMarkedDown("server-host"));
  EXPECT_GE(tb.dm->hostRecoveriesDetected(), 1u);
  EXPECT_EQ(tb.dm->engine().facts().findWhere(
                "host-failure", {{"host", rules::Value::symbol("server-host")}}),
            nullptr);
  // Post-recovery revalidation found the video server dead and restarted it.
  EXPECT_GE(tb.dm->recoveryRestarts(), 1u);
  EXPECT_GE(tb.serverHm->restartsPerformed(), 1u);
  EXPECT_FALSE(tb.video->serverProcess().terminated());
}

TEST(Heartbeat, ManagerDaemonCrashAloneTriggersDetection) {
  apps::Testbed tb(chaosConfig(3));
  tb.startVideo();
  faults::FaultInjector injector(tb.sim, tb.network);
  registerTestbed(injector, tb);
  faults::FaultPlan plan;
  plan.managerCrash(sim::sec(3), "server-host")
      .managerRestart(sim::sec(6), "server-host");
  injector.arm(plan);

  tb.sim.runUntil(sim::sec(5));
  EXPECT_TRUE(tb.dm->hostMarkedDown("server-host"));
  tb.sim.runUntil(sim::sec(8));
  EXPECT_FALSE(tb.dm->hostMarkedDown("server-host"));
  EXPECT_EQ(tb.serverHm->daemonCrashes(), 1u);
}

// ---- Host manager resilience ----

TEST(HostManagerFaults, FactTtlExpiresSilentPids) {
  sim::Simulation s{1};
  osim::Host host{s, "client-host"};
  manager::HostManagerConfig cfg;
  cfg.factTtl = sim::sec(2);
  manager::QoSHostManager hm(s, host, nullptr, cfg);

  auto p = host.spawn("video", [](osim::Process&) {});
  instrument::ViolationReport r;
  r.policyId = "NotifyQoSViolation";
  r.pid = p->pid();
  r.hostName = "client-host";
  r.executable = "VideoApplication";
  r.violated = true;
  r.metrics = {{"frame_rate", 8.0}, {"jitter_rate", 0.5}, {"buffer_size", 20000.0}};
  hm.handleReport(r);
  EXPECT_NE(hm.engine().facts().findWhere(
                "violation", {{"pid", rules::Value::integer(p->pid())}}),
            nullptr);

  // The coordinator goes silent (process crash): facts age out.
  s.runUntil(sim::sec(6));
  EXPECT_EQ(hm.engine().facts().findWhere(
                "violation", {{"pid", rules::Value::integer(p->pid())}}),
            nullptr);
  EXPECT_GE(hm.staleExpiries(), 1u);
  host.shutdown();
}

TEST(HostManagerFaults, CrashLosesStateRestartDrainsBacklog) {
  apps::Testbed tb(chaosConfig(5));
  tb.startVideo();
  tb.setCrossTraffic(9.0);  // congest the bottleneck: violations flow
  tb.sim.runUntil(sim::sec(4));
  const std::uint64_t before = tb.clientHm->reportsReceived();
  EXPECT_GT(before, 0u);

  ASSERT_TRUE(tb.clientHm->crash());
  EXPECT_FALSE(tb.clientHm->crash());  // idempotent
  tb.sim.runUntil(sim::sec(8));
  EXPECT_EQ(tb.clientHm->reportsReceived(), before);  // nothing consumed
  EXPECT_EQ(tb.clientHm->engine().facts().size(), 0u);  // working memory lost

  ASSERT_TRUE(tb.clientHm->restartDaemon());
  tb.sim.runUntil(sim::sec(10));
  // Queued + fresh reports reach the daemon after restart.
  EXPECT_GT(tb.clientHm->reportsReceived(), before);
}

// ---- Whole-scenario determinism ----

/// Serialize everything observable about a chaos run into one string.
std::string chaosDigest(std::uint64_t seed) {
  apps::Testbed tb(chaosConfig(seed));
  tb.sim.trace().setLevel(sim::TraceLevel::kInfo);
  tb.startVideo();
  faults::FaultInjector injector(tb.sim, tb.network);
  registerTestbed(injector, tb);
  net::LinkFaultProfile lossy;
  lossy.lossRate = 0.3;
  faults::FaultPlan plan;
  plan.hostCrash(sim::sec(3), "server-host")
      .hostRestart(sim::sec(6), "server-host")
      .linkDegrade(sim::sec(8), "switch-a", "switch-b", lossy)
      .linkRestore(sim::sec(10), "switch-a", "switch-b");
  injector.arm(plan);
  tb.sim.runUntil(sim::sec(12));

  std::ostringstream out;
  for (const sim::TraceRecord& rec : tb.sim.trace().records()) {
    out << rec.time << '|' << static_cast<int>(rec.level) << '|'
        << rec.component << '|' << rec.message << '\n';
  }
  out << "frames=" << tb.video->framesDisplayed()
      << " hb=" << tb.dm->heartbeatsSent()
      << " misses=" << tb.dm->heartbeatMisses()
      << " faultDrops=" << tb.bottleneck()->faultDrops()
      << " injected=" << injector.injected() << '\n';
  return out.str();
}

TEST(Determinism, SameSeedSamePlanIsByteIdentical) {
  const std::string a = chaosDigest(42);
  const std::string b = chaosDigest(42);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 0u);
}

TEST(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(chaosDigest(42), chaosDigest(43));
}

}  // namespace
}  // namespace softqos
