// Network substrate: channels, routing, fragmentation/reassembly, switches,
// cross traffic, and the management RPC layer.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/nic.hpp"
#include "net/rpc.hpp"
#include "net/switch.hpp"
#include "net/traffic.hpp"

namespace softqos::net {
namespace {

ChannelConfig slowLink() {
  ChannelConfig cfg;
  cfg.bytesPerSecond = 1e6;  // 1 MB/s: 1000 bytes = 1ms serialization
  cfg.propagationDelay = sim::msec(1);
  cfg.queueCapacityBytes = 20000;
  return cfg;
}

struct TwoHosts : ::testing::Test {
  sim::Simulation s{1};
  Network net{s};
  osim::Host ha{s, "a"};
  osim::Host hb{s, "b"};
  Switch sw{net, "sw"};

  TwoHosts() {
    Nic& na = net.attachHost(ha);
    Nic& nb = net.attachHost(hb);
    net.link(na, sw, slowLink());
    net.link(nb, sw, slowLink());
  }
};

// ---- Channel timing ----

TEST_F(TwoHosts, MessageArrivesAfterSerializationAndPropagation) {
  auto sa = ha.createSocket();
  auto sb = hb.createSocket();
  net.connect(sa, ha, 100, sb, hb, 200);
  sim::SimTime arrival = -1;
  sb->setDaemonReceiver([&](osim::Message) { arrival = s.now(); });
  osim::Message m;
  m.bytes = 1000;
  sa->send(std::move(m));
  s.runAll();
  // Two hops of 1ms serialization + 1ms propagation each = ~4ms.
  EXPECT_NEAR(sim::toSeconds(arrival), 0.004, 0.001);
}

TEST_F(TwoHosts, BandwidthLimitsThroughput) {
  auto sa = ha.createSocket();
  auto sb = hb.createSocket(1 << 20);
  net.connect(sa, ha, 100, sb, hb, 200);
  std::int64_t received = 0;
  sb->setDaemonReceiver([&](osim::Message m) { received += m.bytes; });
  // Offer 2 MB/s into a 1 MB/s link: one 1000-byte message every 0.5ms.
  for (int i = 0; i < 100; ++i) {
    s.after(sim::usec(500) * i, [sa] {
      osim::Message m;
      m.bytes = 1000;
      sa->send(std::move(m));
    });
  }
  s.runUntil(sim::msec(50));
  // The link can carry ~50 KB in 50ms; the rest queues or drops.
  EXPECT_GT(received, 20000);
  EXPECT_LT(received, 70000);
}

TEST_F(TwoHosts, QueueOverflowDropsPackets) {
  Channel* ch = net.channel(net.nicForHost("a")->id(), sw.id());
  ASSERT_NE(ch, nullptr);
  for (int i = 0; i < 40; ++i) {
    Packet p;
    p.src = net.nicForHost("a")->id();
    p.dst = net.nicForHost("b")->id();
    p.bytes = 1000;
    ch->enqueue(std::move(p));
  }
  EXPECT_GT(ch->drops(), 0u);
  EXPECT_LE(ch->queuedBytes(), slowLink().queueCapacityBytes);
}

TEST_F(TwoHosts, UtilizationReflectsTraffic) {
  auto sa = ha.createSocket();
  auto sb = hb.createSocket(1 << 20);
  net.connect(sa, ha, 100, sb, hb, 200);
  Channel* ch = net.channel(net.nicForHost("a")->id(), sw.id());
  for (int i = 0; i < 1000; ++i) {
    s.after(sim::msec(i), [sa] {
      osim::Message m;
      m.bytes = 900;
      sa->send(std::move(m));
    });
  }
  s.runUntil(sim::sec(1));
  EXPECT_GT(ch->utilization(), 0.5);
  EXPECT_GT(ch->utilizationSinceLastPoll(), 0.5);
  s.runUntil(sim::sec(5));  // quiet period
  EXPECT_LT(ch->utilizationSinceLastPoll(), 0.1);
}

// ---- Fragmentation / reassembly ----

TEST_F(TwoHosts, LargeMessagesFragmentToMtuAndReassemble) {
  auto sa = ha.createSocket();
  auto sb = hb.createSocket(1 << 20);
  net.connect(sa, ha, 100, sb, hb, 200);
  osim::Message got;
  sb->setDaemonReceiver([&](osim::Message m) { got = std::move(m); });
  osim::Message m;
  m.kind = "frame";
  m.seq = 9;
  m.bytes = 12000;  // 8 fragments at MTU 1500
  m.payload = "meta";
  sa->send(std::move(m));
  s.runAll();
  EXPECT_EQ(got.kind, "frame");
  EXPECT_EQ(got.seq, 9u);
  EXPECT_EQ(got.bytes, 12000);
  EXPECT_EQ(got.payload, "meta");
}

TEST_F(TwoHosts, LostFragmentLosesWholeMessage) {
  auto sa = ha.createSocket();
  auto sb = hb.createSocket(1 << 20);
  net.connect(sa, ha, 100, sb, hb, 200);
  // Cross traffic interleaves with the stream's fragments at the switch, so
  // drops land in the *middle* of messages (a pure drop-tail burst would
  // only ever truncate message suffixes).
  TrafficConfig crossCfg;
  crossCfg.bytesPerSecond = 9e5;
  crossCfg.packetBytes = 1400;
  TrafficSource cross(net, "cross", crossCfg);
  net.link(cross, sw, slowLink());
  cross.start(net.nicForHost("b")->id());  // unbound port: congests sw->b

  int delivered = 0;
  sb->setDaemonReceiver([&](osim::Message) { ++delivered; });
  for (int i = 0; i < 100; ++i) {
    s.after(sim::msec(15) * i, [sa] {
      osim::Message m;
      m.bytes = 12000;
      sa->send(std::move(m));
    });
  }
  s.runUntil(sim::sec(3));
  cross.stop();
  s.runAll();
  EXPECT_LT(delivered, 100);
  EXPECT_GT(net.nicForHost("b")->incompleteMessages(), 0u)
      << "a message missing a fragment must not be delivered";
}

TEST_F(TwoHosts, UnboundPortCountsDrop) {
  net.sendToHost("a", "b", 999, osim::Message{.kind = "x", .seq = 0,
                                              .bytes = 10, .payload = "",
                                              .sentAt = 0});
  s.runAll();
  EXPECT_EQ(net.nicForHost("b")->unboundDrops(), 1u);
}

TEST_F(TwoHosts, CorruptedSingleFragmentMessageCountsCorruptDrop) {
  auto sa = ha.createSocket();
  auto sb = hb.createSocket();
  net.connect(sa, ha, 100, sb, hb, 200);
  int delivered = 0;
  sb->setDaemonReceiver([&](osim::Message) { ++delivered; });
  sim::RandomStream rng = s.stream("corrupt");
  LinkFaultProfile corrupt;
  corrupt.corruptRate = 1.0;
  net.channel(net.nicForHost("a")->id(), sw.id())->setFaultProfile(corrupt,
                                                                   &rng);
  osim::Message m;
  m.bytes = 1000;  // one fragment at MTU 1500: no reassembly state
  sa->send(std::move(m));
  s.runAll();
  const Nic* nb = net.nicForHost("b");
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(nb->corruptDrops(), 1u);
  EXPECT_EQ(nb->incompleteMessages(), 0u);
}

TEST(Reassembly, DroppedFragmentCountsIncompleteMessage) {
  sim::Simulation s;
  Network net(s);
  osim::Host ha(s, "a");
  osim::Host hb(s, "b");
  Switch sw(net, "sw");
  Nic& na = net.attachHost(ha);
  Nic& nb = net.attachHost(hb);
  // A queue smaller than the 1500-byte MTU drops every full fragment and
  // passes a short last one.
  ChannelConfig narrow = slowLink();
  narrow.queueCapacityBytes = 1400;
  net.link(na, sw, narrow);
  net.link(nb, sw, slowLink());
  auto sa = ha.createSocket();
  auto sb = hb.createSocket();
  net.connect(sa, ha, 100, sb, hb, 200);
  int delivered = 0;
  sb->setDaemonReceiver([&](osim::Message) { ++delivered; });

  osim::Message m;
  m.bytes = 2000;  // fragments of 1500 (dropped) and 500 (arrives)
  sa->send(std::move(m));
  s.runAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(nb.incompleteMessages(), 1u);
  EXPECT_EQ(net.channel(na.id(), sw.id())->drops(), 1u);

  osim::Message small;
  small.bytes = 900;  // one fragment, under the queue capacity
  sa->send(std::move(small));
  s.runAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(nb.incompleteMessages(), 1u);
  EXPECT_EQ(nb.corruptDrops(), 0u);
}

// ---- Routing ----

TEST(Routing, MultiHopShortestPath) {
  sim::Simulation s;
  Network net(s);
  osim::Host ha(s, "a");
  osim::Host hb(s, "b");
  Switch s1(net, "s1");
  Switch s2(net, "s2");
  Switch s3(net, "s3");
  Nic& na = net.attachHost(ha);
  Nic& nb = net.attachHost(hb);
  // a - s1 - s2 - b  plus a longer detour s1 - s3 - s2.
  net.link(na, s1);
  net.link(s1, s2);
  net.link(s1, s3);
  net.link(s3, s2);
  net.link(s2, nb);
  EXPECT_EQ(net.nextHop(na.id(), nb.id()), s1.id());
  EXPECT_EQ(net.nextHop(s1.id(), nb.id()), s2.id());

  auto sa = ha.createSocket();
  auto sb = hb.createSocket();
  net.connect(sa, ha, 1, sb, hb, 2);
  bool got = false;
  sb->setDaemonReceiver([&](osim::Message) { got = true; });
  osim::Message m;
  m.bytes = 100;
  sa->send(std::move(m));
  s.runAll();
  EXPECT_TRUE(got);
  EXPECT_EQ(s3.forwarded(), 0u);  // the shortest path avoids the detour
  EXPECT_GT(s1.forwarded() + s2.forwarded(), 0u);
}

TEST(Routing, DisabledLinkForcesDetourAndReenableRestores) {
  sim::Simulation s;
  Network net(s);
  osim::Host ha(s, "a");
  osim::Host hb(s, "b");
  Switch s1(net, "s1");
  Switch s2(net, "s2");
  Switch s3(net, "s3");
  Nic& na = net.attachHost(ha);
  Nic& nb = net.attachHost(hb);
  net.link(na, s1);
  net.link(s1, s2);
  net.link(s1, s3);
  net.link(s3, s2);
  net.link(s2, nb);

  EXPECT_EQ(net.nextHop(s1.id(), nb.id()), s2.id());
  ASSERT_TRUE(net.setLinkEnabled(s1.id(), s2.id(), false));
  EXPECT_EQ(net.nextHop(s1.id(), nb.id()), s3.id()) << "detour via s3";
  ASSERT_TRUE(net.setLinkEnabled(s1.id(), s2.id(), true));
  EXPECT_EQ(net.nextHop(s1.id(), nb.id()), s2.id());
  EXPECT_FALSE(net.setLinkEnabled(s1.id(), nb.id(), false))
      << "no such link";
}

TEST(Routing, DisablingTheOnlyLinkPartitions) {
  sim::Simulation s;
  Network net(s);
  osim::Host ha(s, "a");
  osim::Host hb(s, "b");
  Nic& na = net.attachHost(ha);
  Nic& nb = net.attachHost(hb);
  net.link(na, nb);
  EXPECT_NE(net.nextHop(na.id(), nb.id()), kNoNode);
  net.setLinkEnabled(na.id(), nb.id(), false);
  EXPECT_EQ(net.nextHop(na.id(), nb.id()), kNoNode);
}

// The flat next-port table against a brute-force reference kept by the
// test itself: per destination, a BFS over the links in the order they
// were made, skipping disabled ones and transiting only switches. nextHop
// must equal it for every pair, and a packet forwarded between every two
// endpoints must arrive exactly when the reference finds a route.
TEST(Routing, NextPortTableMatchesBruteForceBfs) {
  std::mt19937_64 rng(24);
  auto draw = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::uint64_t routedPairs = 0;
  std::uint64_t partitionedPairs = 0;
  for (int trial = 0; trial < 40; ++trial) {
    sim::Simulation s;
    Network net(s);
    const int switches = draw(1, 8);
    const int endpoints = draw(2, 6);
    std::vector<std::unique_ptr<NetNode>> nodes;
    for (int i = 0; i < switches; ++i) {
      nodes.push_back(std::make_unique<Switch>(net, "s" + std::to_string(i)));
    }
    for (int i = 0; i < endpoints; ++i) {
      nodes.push_back(
          std::make_unique<TrafficSink>(net, "e" + std::to_string(i)));
    }
    const int n = switches + endpoints;  // ids follow creation order
    std::vector<std::vector<NodeId>> adjacency(static_cast<std::size_t>(n));
    std::vector<std::pair<NodeId, NodeId>> links;
    auto link = [&](int a, int b) {
      net.link(*nodes[static_cast<std::size_t>(a)],
               *nodes[static_cast<std::size_t>(b)]);
      adjacency[static_cast<std::size_t>(a)].push_back(b);
      adjacency[static_cast<std::size_t>(b)].push_back(a);
      links.emplace_back(a, b);
    };
    for (int e = draw(0, 2 * switches); e > 0; --e) {
      const int a = draw(0, switches - 1);
      const int b = draw(0, switches - 1);
      if (a != b) link(a, b);  // repeated pairs make parallel links
    }
    for (int i = switches; i < n; ++i) {
      for (int k = draw(1, 2); k > 0; --k) link(i, draw(0, switches - 1));
      const int peer = draw(switches, n - 1);
      if (peer != i && draw(0, 5) == 0) link(i, peer);  // endpoint to endpoint
    }
    std::set<std::pair<NodeId, NodeId>> disabled;
    for (const auto& [a, b] : links) {
      if (draw(0, 4) == 0) {
        ASSERT_TRUE(net.setLinkEnabled(a, b, false));
        disabled.insert({a, b});
        disabled.insert({b, a});
      }
    }

    std::vector<std::vector<NodeId>> reference(
        static_cast<std::size_t>(n),
        std::vector<NodeId>(static_cast<std::size_t>(n), kNoNode));
    for (int dst = 0; dst < n; ++dst) {
      std::vector<bool> seen(static_cast<std::size_t>(n), false);
      std::vector<NodeId> frontier{dst};
      seen[static_cast<std::size_t>(dst)] = true;
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const NodeId cur = frontier[head];
        if (cur != dst && cur >= switches) continue;  // endpoints never transit
        for (const NodeId nb : adjacency[static_cast<std::size_t>(cur)]) {
          if (disabled.contains({nb, cur}) ||
              seen[static_cast<std::size_t>(nb)]) {
            continue;
          }
          seen[static_cast<std::size_t>(nb)] = true;
          reference[static_cast<std::size_t>(nb)]
                   [static_cast<std::size_t>(dst)] = cur;
          frontier.push_back(nb);
        }
      }
    }

    std::uint64_t reachable = 0;
    std::uint64_t unreachable = 0;
    for (int from = 0; from < n; ++from) {
      for (int dst = 0; dst < n; ++dst) {
        const NodeId hop = reference[static_cast<std::size_t>(from)]
                                    [static_cast<std::size_t>(dst)];
        ASSERT_EQ(net.nextHop(from, dst), hop)
            << "trial " << trial << " from " << from << " to " << dst;
        if (hop != kNoNode) {
          ASSERT_NE(net.channel(from, hop), nullptr);
          ASSERT_TRUE(net.linkEnabled(from, hop));
        }
        if (from < switches || dst < switches || from == dst) continue;
        Packet p;
        p.src = from;
        p.dst = dst;
        p.bytes = 100;
        net.forward(from, std::move(p));
        (hop != kNoNode ? reachable : unreachable) += 1;
      }
    }
    s.runAll();
    std::uint64_t received = 0;
    for (int i = switches; i < n; ++i) {
      received += static_cast<const TrafficSink&>(
                      *nodes[static_cast<std::size_t>(i)])
                      .packetsReceived();
    }
    EXPECT_EQ(received, reachable) << "trial " << trial;
    EXPECT_EQ(net.unreachableDrops(), unreachable) << "trial " << trial;
    routedPairs += reachable;
    partitionedPairs += unreachable;
  }
  EXPECT_GT(routedPairs, 100u);
  EXPECT_GT(partitionedPairs, 10u);
}

TEST(Routing, UnreachableDestinationCountsDrop) {
  sim::Simulation s;
  Network net(s);
  osim::Host ha(s, "a");
  osim::Host hb(s, "b");
  net.attachHost(ha);
  net.attachHost(hb);  // no links at all
  EXPECT_TRUE(net.sendToHost("a", "b", 1, osim::Message{.kind = "x", .seq = 0,
                                                        .bytes = 10,
                                                        .payload = "",
                                                        .sentAt = 0}));
  s.runAll();
  EXPECT_GT(net.unreachableDrops(), 0u);
}

TEST(Routing, DuplicateNodeNameThrows) {
  sim::Simulation s;
  Network net(s);
  Switch s1(net, "x");
  EXPECT_THROW(Switch(net, "x"), std::invalid_argument);
}

TEST(Routing, SendToUnknownHostReturnsFalse) {
  sim::Simulation s;
  Network net(s);
  EXPECT_FALSE(net.sendToHost("nope", "alsono", 1, osim::Message{}));
}

// ---- Cross traffic ----

TEST(Traffic, SourceApproximatesConfiguredRate) {
  sim::Simulation s;
  Network net(s);
  Switch sw(net, "sw");
  TrafficSink sink(net, "sink");
  TrafficConfig cfg;
  cfg.bytesPerSecond = 1e6;
  cfg.packetBytes = 1000;
  TrafficSource src(net, "src", cfg);
  net.link(src, sw, ChannelConfig{});
  net.link(sw, sink, ChannelConfig{});
  src.start(sink.id());
  s.runUntil(sim::sec(10));
  src.stop();
  EXPECT_NEAR(static_cast<double>(sink.bytesReceived()), 1e7, 2e6);
}

TEST(Traffic, StopHaltsEmission) {
  sim::Simulation s;
  Network net(s);
  TrafficSink sink(net, "sink");
  TrafficSource src(net, "src", TrafficConfig{});
  net.link(src, sink, ChannelConfig{});
  src.start(sink.id());
  s.runUntil(sim::sec(1));
  src.stop();
  const auto before = sink.packetsReceived();
  s.runUntil(sim::sec(3));
  EXPECT_LE(sink.packetsReceived(), before + 2);  // in-flight only
}

// ---- RPC ----

struct RpcFixture : TwoHosts {
  RpcEndpoint ea{net, ha, 7000};
  RpcEndpoint eb{net, hb, 7000};
};

TEST_F(RpcFixture, RequestResponseRoundTrip) {
  eb.setHandler("echo", [](const std::string& body,
                           RpcEndpoint::Responder respond) {
    respond("you said " + body);
  });
  std::string reply;
  bool ok = false;
  ea.call("b", 7000, "echo", "hi", [&](bool o, std::string r) {
    ok = o;
    reply = std::move(r);
  });
  s.runAll();
  EXPECT_TRUE(ok);
  EXPECT_EQ(reply, "you said hi");
  EXPECT_EQ(eb.requestsHandled(), 1u);
}

TEST_F(RpcFixture, UnknownMethodReturnsError) {
  std::string reply;
  ea.call("b", 7000, "nope", "", [&](bool, std::string r) { reply = std::move(r); });
  s.runAll();
  EXPECT_EQ(reply, "ERR:unknown-method");
}

TEST_F(RpcFixture, TimeoutFiresWhenPeerIsUnreachable) {
  bool ok = true;
  bool called = false;
  ea.call("no-such-host", 7000, "x", "", [&](bool o, std::string) {
    ok = o;
    called = true;
  }, sim::msec(100));
  s.runAll();
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_EQ(ea.timeouts(), 1u);
}

TEST_F(RpcFixture, BodyMayContainDelimiters) {
  eb.setHandler("echo", [](const std::string& body,
                           RpcEndpoint::Responder respond) { respond(body); });
  std::string reply;
  ea.call("b", 7000, "echo", "a|b;c=d|e", [&](bool, std::string r) {
    reply = std::move(r);
  });
  s.runAll();
  EXPECT_EQ(reply, "a|b;c=d|e");
}

TEST_F(RpcFixture, AsynchronousResponderWorks) {
  eb.setHandler("slow", [this](const std::string&,
                               RpcEndpoint::Responder respond) {
    s.after(sim::msec(50), [respond] { respond("done"); });
  });
  std::string reply;
  ea.call("b", 7000, "slow", "", [&](bool, std::string r) { reply = std::move(r); });
  s.runAll();
  EXPECT_EQ(reply, "done");
}

TEST_F(RpcFixture, ConcurrentCallsMatchResponses) {
  eb.setHandler("echo", [](const std::string& body,
                           RpcEndpoint::Responder respond) { respond(body); });
  std::vector<std::string> replies(5);
  for (int i = 0; i < 5; ++i) {
    ea.call("b", 7000, "echo", std::to_string(i),
            [&replies, i](bool, std::string r) {
              replies[static_cast<std::size_t>(i)] = std::move(r);
            });
  }
  s.runAll();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(replies[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

TEST(SplitString, MaxPartsKeepsRemainder) {
  const auto parts = splitString("a|b|c|d", '|', 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c|d");
}

TEST(SplitString, NoDelimiterYieldsWhole) {
  const auto parts = splitString("abc", '|', 0);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

}  // namespace
}  // namespace softqos::net
