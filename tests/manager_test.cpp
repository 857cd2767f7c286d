// Enforcement managers: resource managers, the QoS Host Manager's
// report->facts->rules->action pipeline, rule distribution, and the QoS
// Domain Manager's fault localization.
#include <gtest/gtest.h>

#include <algorithm>

#include "manager/default_rules.hpp"
#include "manager/domain_manager.hpp"
#include "rules/parser.hpp"
#include "manager/host_manager.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"

namespace softqos::manager {
namespace {

void spinLoop(osim::Process& p) {
  if (p.terminated()) return;
  p.compute(sim::msec(10), [&p] { spinLoop(p); });
}

instrument::ViolationReport videoReport(osim::Pid pid, const std::string& host,
                                        double fps, double jitter,
                                        double buffer, bool violated = true) {
  instrument::ViolationReport r;
  r.policyId = "NotifyQoSViolation";
  r.pid = pid;
  r.hostName = host;
  r.executable = "VideoApplication";
  r.userRole = "silver";
  r.violated = violated;
  r.metrics = {{"frame_rate", fps},
               {"jitter_rate", jitter},
               {"buffer_size", buffer}};
  return r;
}

// ---- Resource managers ----

struct RmFixture : ::testing::Test {
  sim::Simulation s{1};
  osim::Host host{s, "h"};
  CpuResourceManager cpu{host};
  MemoryResourceManager mem{host};
};

TEST_F(RmFixture, AdjustTsPriorityAccumulatesAndClamps) {
  auto p = host.spawn("p", [](osim::Process&) {});
  EXPECT_TRUE(cpu.adjustTsPriority(p->pid(), 10));
  EXPECT_TRUE(cpu.adjustTsPriority(p->pid(), 10));
  EXPECT_EQ(cpu.tsPriority(p->pid()), 20);
  cpu.adjustTsPriority(p->pid(), 100);
  EXPECT_EQ(cpu.tsPriority(p->pid()), 60);
  EXPECT_TRUE(cpu.tsSaturated(p->pid()));
  EXPECT_EQ(cpu.adjustments(), 3u);
}

TEST_F(RmFixture, UnknownOrDeadPidFails) {
  EXPECT_FALSE(cpu.adjustTsPriority(999, 5));
  auto p = host.spawn("p", [](osim::Process& q) { q.exitProcess(); });
  s.runAll();
  EXPECT_FALSE(cpu.adjustTsPriority(p->pid(), 5));
  EXPECT_FALSE(mem.setResidentCap(p->pid(), 10));
}

TEST_F(RmFixture, RtShareGrantAndRevoke) {
  auto p = host.spawn("p", [](osim::Process& q) { spinLoop(q); });
  EXPECT_TRUE(cpu.grantRtShare(p->pid(), 70));
  EXPECT_EQ(cpu.rtShare(p->pid()), 70);
  EXPECT_TRUE(cpu.grantRtShare(p->pid(), 0));
  EXPECT_EQ(cpu.rtShare(p->pid()), 0);
  host.shutdown();
}

TEST_F(RmFixture, RtShareClampsTo95) {
  auto p = host.spawn("p", [](osim::Process&) {});
  cpu.grantRtShare(p->pid(), 200);
  EXPECT_EQ(cpu.rtShare(p->pid()), 95);
  host.shutdown();
}

TEST_F(RmFixture, ReleaseRestoresDefaults) {
  auto p = host.spawn("p", [](osim::Process&) {});
  cpu.adjustTsPriority(p->pid(), 30);
  cpu.grantRtShare(p->pid(), 50);
  EXPECT_TRUE(cpu.release(p->pid()));
  EXPECT_EQ(cpu.tsPriority(p->pid()), 0);
  EXPECT_EQ(cpu.rtShare(p->pid()), 0);
}

TEST_F(RmFixture, MemoryCapAndGrow) {
  auto p = host.spawn("p", [](osim::Process&) {});
  p->setWorkingSetPages(1000);
  EXPECT_TRUE(mem.setResidentCap(p->pid(), 400));
  EXPECT_EQ(mem.residentCap(p->pid()), 400);
  EXPECT_EQ(mem.slowdownPercent(p->pid()), 250);
  EXPECT_TRUE(mem.growResidentCap(p->pid(), 600));
  EXPECT_EQ(mem.residentCap(p->pid()), 1000);
  EXPECT_EQ(mem.slowdownPercent(p->pid()), 100);
}

// ---- Host manager ----

struct HmFixture : ::testing::Test {
  sim::Simulation s{1};
  osim::Host host{s, "client-host"};
  HostManagerConfig config;
  std::unique_ptr<QoSHostManager> hm;

  void SetUp() override {
    hm = std::make_unique<QoSHostManager>(s, host, nullptr, config);
  }
};

TEST_F(HmFixture, DefaultRulesLoad) {
  EXPECT_GE(hm->engine().ruleCount(), 7u);
  EXPECT_TRUE(hm->engine().hasRule("local-cpu-shortage-severe"));
  EXPECT_TRUE(hm->engine().hasRule("remote-problem"));
  EXPECT_TRUE(hm->engine().hasRule("over-provisioned"));
}

TEST_F(HmFixture, SevereDeficitGetsLargeBoost) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  hm->handleReport(videoReport(p->pid(), "client-host", 8.0, 0.5, 20000.0));
  EXPECT_EQ(hm->cpuManager().tsPriority(p->pid()), 12);
  EXPECT_EQ(hm->boostsApplied(), 1u);
  host.shutdown();
}

TEST_F(HmFixture, ModerateAndMildDeficitsGetSmallerBoosts) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  hm->handleReport(videoReport(p->pid(), "client-host", 18.0, 0.5, 20000.0));
  EXPECT_EQ(hm->cpuManager().tsPriority(p->pid()), 6);
  hm->handleReport(videoReport(p->pid(), "client-host", 23.0, 0.5, 20000.0));
  EXPECT_EQ(hm->cpuManager().tsPriority(p->pid()), 9);
  host.shutdown();
}

TEST_F(HmFixture, OverProvisionedDecays) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  hm->cpuManager().setTsPriority(p->pid(), 20);
  hm->handleReport(videoReport(p->pid(), "client-host", 33.0, 0.2, 8000.0));
  EXPECT_EQ(hm->cpuManager().tsPriority(p->pid()), 18);
  EXPECT_EQ(hm->decaysApplied(), 1u);
  host.shutdown();
}

TEST_F(HmFixture, TsSaturationEscalatesToRtGrant) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  hm->cpuManager().setTsPriority(p->pid(), 60);
  hm->handleReport(videoReport(p->pid(), "client-host", 8.0, 0.5, 20000.0));
  EXPECT_EQ(hm->cpuManager().rtShare(p->pid()), 85);
  EXPECT_EQ(hm->rtGrantsIssued(), 1u);
  host.shutdown();
}

TEST_F(HmFixture, DecayUnwindsRtGrantFirst) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  hm->cpuManager().setTsPriority(p->pid(), 60);
  hm->cpuManager().grantRtShare(p->pid(), 85);
  hm->handleReport(videoReport(p->pid(), "client-host", 33.0, 0.2, 8000.0));
  EXPECT_EQ(hm->cpuManager().rtShare(p->pid()), 0);
  EXPECT_EQ(hm->cpuManager().tsPriority(p->pid()), 60) << "TS upri untouched";
  host.shutdown();
}

TEST_F(HmFixture, EmptyBufferEscalatesInsteadOfBoosting) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  hm->handleReport(videoReport(p->pid(), "client-host", 8.0, 0.5, 100.0));
  EXPECT_EQ(hm->cpuManager().tsPriority(p->pid()), 0) << "problem is remote";
  EXPECT_EQ(hm->escalationsSent(), 1u);  // counted even with no DM configured
  host.shutdown();
}

TEST_F(HmFixture, MemoryPressureGrowsResidentSet) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  p->setWorkingSetPages(4000);
  p->setMemoryCapPages(2000);  // paging: slowdown 200%
  hm->handleReport(videoReport(p->pid(), "client-host", 18.0, 0.5, 20000.0));
  EXPECT_EQ(hm->memoryGrowths(), 1u);
  EXPECT_EQ(p->memoryCapPages(), 3024);
  host.shutdown();
}

TEST_F(HmFixture, ClearReportTakesNoCorrectiveAction) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  hm->handleReport(videoReport(p->pid(), "client-host", 26.0, 0.2, 8000.0,
                               /*violated=*/false));
  EXPECT_EQ(hm->cpuManager().tsPriority(p->pid()), 0);
  EXPECT_EQ(hm->boostsApplied(), 0u);
  EXPECT_EQ(hm->decaysApplied(), 0u);
  host.shutdown();
}

TEST_F(HmFixture, MessageQueuePathDeliversReports) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  host.msgQueue("qos-host-manager")
      .send(videoReport(p->pid(), "client-host", 8.0, 0.5, 20000.0).serialize(),
            p->pid());
  s.runUntil(sim::msec(1));
  EXPECT_EQ(hm->reportsReceived(), 1u);
  EXPECT_GT(hm->cpuManager().tsPriority(p->pid()), 0);
  host.shutdown();
}

TEST_F(HmFixture, StaleFactsAreReplacedPerSession) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  hm->handleReport(videoReport(p->pid(), "client-host", 8.0, 0.5, 20000.0));
  hm->handleReport(videoReport(p->pid(), "client-host", 18.0, 0.5, 20000.0));
  // Only the latest metric facts for this pid remain.
  std::size_t fpsFacts = 0;
  for (const rules::Fact* f : hm->engine().facts().byTemplate("metric")) {
    if (f->slot("name") != nullptr &&
        *f->slot("name") == rules::Value::symbol("frame_rate")) {
      ++fpsFacts;
    }
  }
  EXPECT_EQ(fpsFacts, 1u);
  host.shutdown();
}

TEST_F(HmFixture, DynamicRuleReplacementChangesBehaviour) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  // An administrator replaces the severe rule with a much gentler one.
  hm->loadRuleText(R"(
(defrule local-cpu-shortage-severe
  (declare (salience 20))
  (violation (pid ?pid))
  (metric (pid ?pid) (name buffer_size) (value ?b))
  (metric (pid ?pid) (name frame_rate) (value ?f))
  (test (>= ?b 4096))
  (test (< ?f 14))
  =>
  (call boost-cpu ?pid 1)))");
  hm->handleReport(videoReport(p->pid(), "client-host", 8.0, 0.5, 20000.0));
  EXPECT_EQ(hm->cpuManager().tsPriority(p->pid()), 1);
  host.shutdown();
}

TEST_F(HmFixture, RuleRemovalDisablesBehaviour) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  EXPECT_TRUE(hm->removeRule("local-cpu-shortage-severe"));
  hm->handleReport(videoReport(p->pid(), "client-host", 8.0, 0.5, 20000.0));
  EXPECT_EQ(hm->cpuManager().tsPriority(p->pid()), 0);
  host.shutdown();
}

TEST_F(HmFixture, JitterOnlyViolationGetsGentleBoost) {
  auto p = host.spawn("video", [](osim::Process& q) { spinLoop(q); });
  hm->handleReport(videoReport(p->pid(), "client-host", 28.0, 2.0, 20000.0));
  EXPECT_EQ(hm->cpuManager().tsPriority(p->pid()), 2);
  host.shutdown();
}

// ---- Domain manager over a real network ----

struct DmFixture : ::testing::Test {
  sim::Simulation s{1};
  net::Network net{s};
  osim::Host client{s, "client-host"};
  osim::Host server{s, "server-host"};
  osim::Host mgmt{s, "mgmt-host"};
  net::Switch sw{net, "sw"};
  std::unique_ptr<QoSHostManager> clientHm;
  std::unique_ptr<QoSHostManager> serverHm;
  std::unique_ptr<QoSDomainManager> dm;
  std::shared_ptr<osim::Process> serverProc;

  void SetUp() override {
    net.link(net.attachHost(client), sw);
    net.link(net.attachHost(server), sw);
    net.link(net.attachHost(mgmt), sw);
    HostManagerConfig hmCfg;
    hmCfg.domainManagerHost = "mgmt-host";
    clientHm = std::make_unique<QoSHostManager>(s, client, &net, hmCfg);
    serverHm = std::make_unique<QoSHostManager>(s, server, &net, hmCfg);
    dm = std::make_unique<QoSDomainManager>(s, mgmt, net, "dom");
    dm->addManagedHost("client-host");
    dm->addManagedHost("server-host");
    serverProc = server.spawn("vserver", [](osim::Process& q) { spinLoop(q); });
    dm->registerService("VideoApplication", "server-host", serverProc->pid());
  }

  void TearDown() override {
    client.shutdown();
    server.shutdown();
    mgmt.shutdown();
  }
};

TEST_F(DmFixture, ServerOverloadIsDiagnosedAndBoosted) {
  server.loadSampler().prime(5.0);  // overloaded server
  dm->handleEscalation(videoReport(1, "client-host", 8.0, 0.5, 100.0), 0);
  s.runUntil(sim::sec(1));
  EXPECT_EQ(dm->lastDiagnosis(), "server-overload");
  EXPECT_EQ(dm->serverBoostsSent(), 1u);
  s.runUntil(sim::sec(2));
  EXPECT_GT(serverHm->cpuManager().tsPriority(serverProc->pid()), 0)
      << "the server-side host manager must apply the remote boost";
}

TEST_F(DmFixture, DeadServerProcessIsDiagnosedAndRestartRequested) {
  bool restarted = false;
  serverHm->setRestartHandler([&](osim::Pid) {
    restarted = true;
    return 77;  // pretend-new pid
  });
  server.kill(serverProc->pid());
  dm->handleEscalation(videoReport(1, "client-host", 0.0, 0.5, 0.0), 0);
  s.runUntil(sim::sec(1));
  EXPECT_EQ(dm->lastDiagnosis(), "process-failure");
  EXPECT_EQ(dm->restartsRequested(), 1u);
  s.runUntil(sim::sec(2));
  EXPECT_TRUE(restarted);
  EXPECT_EQ(serverHm->restartsPerformed(), 1u);
}

TEST_F(DmFixture, HealthyServerQuietNetworkIsUnknown) {
  dm->handleEscalation(videoReport(1, "client-host", 8.0, 0.5, 100.0), 0);
  s.runUntil(sim::sec(1));
  EXPECT_EQ(dm->lastDiagnosis(), "unknown");
}

TEST_F(DmFixture, UnknownServiceIsReported) {
  instrument::ViolationReport r = videoReport(1, "client-host", 8, 0.5, 100);
  r.executable = "MysteryApp";
  dm->handleEscalation(r, 0);
  EXPECT_EQ(dm->lastDiagnosis(), "unknown-service");
}

TEST_F(DmFixture, EscalationForUnmanagedHostForwardsToPeer) {
  dm->registerService("VideoApplication", "elsewhere-host", 5);
  DomainManagerConfig peerCfg;
  peerCfg.rpcPort = 7200;
  QoSDomainManager peer(s, client, net, "peer", peerCfg);
  dm->addPeer("client-host", 7200);
  dm->handleEscalation(videoReport(1, "client-host", 8.0, 0.5, 100.0), 0);
  s.runUntil(sim::sec(1));
  EXPECT_EQ(dm->forwardsSent(), 1u);
  EXPECT_EQ(peer.escalationsReceived(), 1u);
}

TEST_F(DmFixture, HostManagerEscalationReachesDomainManagerOverRpc) {
  auto clientProc = client.spawn("video", [](osim::Process& q) { spinLoop(q); });
  clientHm->handleReport(
      videoReport(clientProc->pid(), "client-host", 8.0, 0.5, 100.0));
  s.runUntil(sim::sec(1));
  EXPECT_EQ(dm->escalationsReceived(), 1u);
  EXPECT_FALSE(dm->lastDiagnosis().empty());
}

TEST_F(DmFixture, RuleDistributionToHostManagersOverRpc) {
  dm->distributeHostRules(R"(
(defrule custom-rule
  (violation (pid ?p))
  =>
  (call boost-cpu ?p 1)))");
  s.runUntil(sim::sec(1));
  EXPECT_TRUE(clientHm->engine().hasRule("custom-rule"));
  EXPECT_TRUE(serverHm->engine().hasRule("custom-rule"));
  EXPECT_EQ(clientHm->rulePushesReceived(), 1u);
}

TEST_F(DmFixture, DomainRuleSwapChangesThreshold) {
  // Replace the overload rule with a higher threshold: load 5 becomes benign.
  dm->loadRuleText(R"(
(defrule diagnose-server-overload
  (declare (salience 20))
  (escalation (id ?e) (server ?s) (spid ?sp))
  (server-stats (id ?e) (alive 1) (load ?l))
  (test (>= ?l 50))
  =>
  (call diagnose ?e server-overload)
  (call boost-server ?s ?sp 10))
(defrule diagnose-unknown
  (declare (salience 0))
  (escalation (id ?e))
  (server-stats (id ?e) (alive 1) (load ?l))
  (net-stats (id ?e) (max-util ?u))
  (test (< ?l 50))
  (test (< ?u 0.85))
  =>
  (call diagnose ?e unknown)))");
  server.loadSampler().prime(5.0);
  dm->handleEscalation(videoReport(1, "client-host", 8.0, 0.5, 100.0), 0);
  s.runUntil(sim::sec(1));
  EXPECT_EQ(dm->lastDiagnosis(), "unknown");
}

TEST_F(DmFixture, EscalationFactsAreCleanedUp) {
  dm->handleEscalation(videoReport(1, "client-host", 8.0, 0.5, 100.0), 0);
  s.runUntil(sim::sec(1));
  EXPECT_TRUE(dm->engine().facts().byTemplate("escalation").empty());
  EXPECT_TRUE(dm->engine().facts().byTemplate("server-stats").empty());
  EXPECT_TRUE(dm->engine().facts().byTemplate("net-stats").empty());
}

TEST_F(DmFixture, HostStatsRpcReportsLoadAndLiveness) {
  net::RpcEndpoint probe(net, mgmt, 7900);
  std::string reply;
  probe.call("server-host", 7001, "host-stats",
             "pid=" + std::to_string(serverProc->pid()),
             [&](bool ok, std::string body) {
               ASSERT_TRUE(ok);
               reply = std::move(body);
             });
  s.runUntil(sim::sec(1));
  EXPECT_NE(reply.find("alive=1"), std::string::npos);
  EXPECT_NE(reply.find("load="), std::string::npos);
  server.kill(serverProc->pid());
  probe.call("server-host", 7001, "host-stats",
             "pid=" + std::to_string(serverProc->pid()),
             [&](bool, std::string body) { reply = std::move(body); });
  s.runUntil(sim::sec(2));
  EXPECT_NE(reply.find("alive=0"), std::string::npos);
}

TEST_F(DmFixture, MalformedRulePushIsRejectedOverRpc) {
  net::RpcEndpoint probe(net, mgmt, 7901);
  // A non-integer or out-of-range pattern index or salience is a typed
  // parse error answered on the wire, never an exception out of runUntil.
  for (const std::string text :
       {"(defrule broken", "(defrule r (a) => (retract x))",
        "(defrule r (a) => (retract 99999999999))",
        "(defrule r (declare (salience abc)) (a) => (retract 1))"}) {
    std::string reply;
    probe.call("client-host", 7001, "set-rules", text,
               [&](bool, std::string body) { reply = std::move(body); });
    s.runUntil(s.now() + sim::sec(1));
    EXPECT_EQ(reply.rfind("ERR:", 0), 0u) << text << " -> " << reply;
  }
  EXPECT_EQ(clientHm->rulePushesReceived(), 0u);
}

TEST_F(DmFixture, RemoteRuleRemovalOverRpc) {
  net::RpcEndpoint probe(net, mgmt, 7902);
  std::string reply;
  probe.call("client-host", 7001, "remove-rule", "remote-problem",
             [&](bool, std::string body) { reply = std::move(body); });
  s.runUntil(sim::sec(1));
  EXPECT_EQ(reply, "OK");
  EXPECT_FALSE(clientHm->engine().hasRule("remote-problem"));
  probe.call("client-host", 7001, "remove-rule", "remote-problem",
             [&](bool, std::string body) { reply = std::move(body); });
  s.runUntil(sim::sec(2));
  EXPECT_EQ(reply.rfind("ERR:", 0), 0u);
}

TEST_F(DmFixture, RemoteBoostOnUnknownPidFails) {
  net::RpcEndpoint probe(net, mgmt, 7903);
  std::string reply;
  probe.call("server-host", 7001, "boost", "pid=9999;delta=5",
             [&](bool, std::string body) { reply = std::move(body); });
  s.runUntil(sim::sec(1));
  EXPECT_EQ(reply, "ERR:no-such-pid");
}

TEST_F(DmFixture, RestartWithoutHandlerReportsError) {
  net::RpcEndpoint probe(net, mgmt, 7904);
  std::string reply;
  probe.call("server-host", 7001, "restart",
             "pid=" + std::to_string(serverProc->pid()),
             [&](bool, std::string body) { reply = std::move(body); });
  s.runUntil(sim::sec(1));
  EXPECT_EQ(reply, "ERR:no-restart-handler");
}

// ---- Domain-of-domains tree: escalation climbs tier by tier ----

struct TreeDmFixture : ::testing::Test {
  sim::Simulation s{1};
  net::Network net{s};
  osim::Host client{s, "client-host"};
  osim::Host server{s, "server-host"};
  osim::Host rackSeat{s, "rack-seat"};
  osim::Host clusterSeat{s, "cluster-seat"};
  osim::Host rootSeat{s, "root-seat"};
  net::Switch sw{net, "sw"};
  std::unique_ptr<QoSHostManager> serverHm;
  std::unique_ptr<QoSDomainManager> rackDm;
  std::unique_ptr<QoSDomainManager> clusterDm;
  std::unique_ptr<QoSDomainManager> rootDm;
  std::shared_ptr<osim::Process> serverProc;

  /// rack -> cluster -> root; only the root manages the server's host, and
  /// only the rack and root know the service. `hops` is the forwarding
  /// budget configured at every tier.
  void build(int hops) {
    net.link(net.attachHost(client), sw);
    net.link(net.attachHost(server), sw);
    net.link(net.attachHost(rackSeat), sw);
    net.link(net.attachHost(clusterSeat), sw);
    net.link(net.attachHost(rootSeat), sw);
    serverHm = std::make_unique<QoSHostManager>(s, server, &net,
                                                HostManagerConfig{});
    serverProc = server.spawn("vserver", [](osim::Process& q) { spinLoop(q); });

    DomainManagerConfig rackCfg;
    rackCfg.parentHost = "cluster-seat";
    rackCfg.maxEscalationHops = hops;
    rackDm = std::make_unique<QoSDomainManager>(s, rackSeat, net, "rack",
                                                rackCfg);
    rackDm->addManagedHost("client-host");
    rackDm->registerService("VideoApplication", "server-host",
                            serverProc->pid());

    DomainManagerConfig clusterCfg;
    clusterCfg.parentHost = "root-seat";
    clusterCfg.maxEscalationHops = hops;
    clusterDm = std::make_unique<QoSDomainManager>(s, clusterSeat, net,
                                                   "cluster", clusterCfg);

    rootDm = std::make_unique<QoSDomainManager>(s, rootSeat, net, "root");
    rootDm->addManagedHost("server-host");
    rootDm->registerService("VideoApplication", "server-host",
                            serverProc->pid());
  }

  void TearDown() override {
    client.shutdown();
    server.shutdown();
    rackSeat.shutdown();
    clusterSeat.shutdown();
    rootSeat.shutdown();
  }
};

TEST_F(TreeDmFixture, EscalationClimbsTwoHopsToTheRoot) {
  build(/*hops=*/2);
  // The rack knows the service but does not manage its host (hop 1); the
  // cluster does not even know the service and spends hop 2 asking up.
  rackDm->handleEscalation(videoReport(1, "client-host", 8.0, 0.5, 100.0), 0);
  s.runUntil(sim::sec(2));
  EXPECT_EQ(rackDm->forwardsSent(), 1u);
  EXPECT_EQ(clusterDm->escalationsReceived(), 1u);
  EXPECT_EQ(clusterDm->forwardsSent(), 1u);
  EXPECT_EQ(rootDm->escalationsReceived(), 1u);
  EXPECT_FALSE(rootDm->lastDiagnosis().empty())
      << "the root must localize the fault it alone can place";
}

TEST_F(TreeDmFixture, HopBudgetStopsForwarding) {
  build(/*hops=*/1);
  rackDm->handleEscalation(videoReport(1, "client-host", 8.0, 0.5, 100.0), 0);
  s.runUntil(sim::sec(2));
  // The rack spends the whole budget on its single legacy-framed hop; the
  // cluster must absorb the alarm rather than keep climbing.
  EXPECT_EQ(rackDm->forwardsSent(), 1u);
  EXPECT_EQ(clusterDm->escalationsReceived(), 1u);
  EXPECT_EQ(clusterDm->forwardsSent(), 0u);
  EXPECT_EQ(rootDm->escalationsReceived(), 0u);
  const auto it = clusterDm->diagnosisCounts().find("unknown-service");
  ASSERT_NE(it, clusterDm->diagnosisCounts().end());
  EXPECT_EQ(it->second, 1u);
}

TEST_F(TreeDmFixture, EscalateFramesParseHopsOnTheWire) {
  build(/*hops=*/2);
  net::RpcEndpoint probe(net, client, 7950);
  const std::string report =
      videoReport(1, "client-host", 8.0, 0.5, 100.0).serialize();

  // "FWD<n>|" spends n hops: at n = 2 the cluster's budget is exhausted, so
  // the frame must be absorbed (unknown-service), not forwarded.
  std::string reply;
  probe.call("cluster-seat", 7100, "escalate", "FWD2|" + report,
             [&](bool, std::string body) { reply = std::move(body); });
  s.runUntil(sim::sec(1));
  EXPECT_EQ(reply, "OK");
  EXPECT_EQ(clusterDm->escalationsReceived(), 1u);
  EXPECT_EQ(clusterDm->forwardsSent(), 0u);

  // Legacy "FWD|" is one hop: one more remains in the budget.
  probe.call("cluster-seat", 7100, "escalate", "FWD|" + report,
             [&](bool, std::string body) { reply = std::move(body); });
  s.runUntil(sim::sec(2));
  EXPECT_EQ(reply, "OK");
  EXPECT_EQ(clusterDm->escalationsReceived(), 2u);
  EXPECT_EQ(clusterDm->forwardsSent(), 1u);
  EXPECT_EQ(rootDm->escalationsReceived(), 1u);

  // Malformed hop counts are rejected outright.
  for (const std::string& frame :
       {"FWD0|" + report, "FWDx|" + report, "FWD3x|" + report,
        "FWD-1|" + report, std::string("FWD3-nobar")}) {
    probe.call("cluster-seat", 7100, "escalate", frame,
               [&](bool, std::string body) { reply = std::move(body); });
    s.runUntil(s.now() + sim::sec(1));
    EXPECT_EQ(reply, "ERR:bad-report") << frame;
  }
  EXPECT_EQ(clusterDm->escalationsReceived(), 2u);
}

// ---- Default rule text sanity ----

TEST(DefaultRules, HostRulesParse) {
  rules::InferenceEngine e;
  const auto names = rules::loadRules(e, defaultHostRules({}));
  EXPECT_GE(names.size(), 7u);
}

TEST(DefaultRules, DomainRulesParse) {
  rules::InferenceEngine e;
  const auto names = rules::loadRules(e, defaultDomainRules({}));
  EXPECT_EQ(names.size(), 5u);
  EXPECT_NE(std::find(names.begin(), names.end(), "diagnose-host-failure"),
            names.end());
}

TEST(DefaultRules, ThresholdsAreSubstituted) {
  HostRuleThresholds t;
  t.bufferLowBytes = 12345;
  const std::string text = defaultHostRules(t);
  EXPECT_NE(text.find("12345"), std::string::npos);
}

}  // namespace
}  // namespace softqos::manager
