// Conservative parallel engine: shard-tagged event ids, loud past-window
// failures, deterministic cross-shard mail merging, and the core property —
// a sharded (windowed) run produces exactly the serial run's behaviour, and
// outputs depend only on the shard count, never on the thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"

namespace softqos {
namespace {

// ---- Satellite: scheduling into an already-fired window fails loudly ----

#ifdef NDEBUG  // the assert fires first in debug builds; the throw is the
               // release-mode contract these tests pin down

TEST(EventQueuePastWindow, ScheduleBelowFiredTimestampThrows) {
  sim::EventQueue q;
  q.schedule(100, [] {});
  auto f = q.beginFire();
  f.cb();
  q.finishFire(std::move(f));
  EXPECT_EQ(q.firedThrough(), 100);
  // At the fired timestamp is legal (zero-delay follow-ups)...
  EXPECT_NE(q.schedule(100, [] {}), sim::kInvalidEvent);
  // ...strictly below it is a reordering bug and must not be silent.
  EXPECT_THROW(q.schedule(99, [] {}), std::logic_error);
  EXPECT_EQ(q.pastSchedules(), 1u);
  EXPECT_THROW(q.schedule(0, [] {}), std::logic_error);
  EXPECT_EQ(q.pastSchedules(), 2u);
}

TEST(EventQueuePastWindow, FreshQueueAcceptsAnyTimestamp) {
  sim::EventQueue q;
  EXPECT_EQ(q.pastSchedules(), 0u);
  EXPECT_NE(q.schedule(0, [] {}), sim::kInvalidEvent);
}

// A cross-shard post below the lookahead contract must fail the run, not
// silently reorder: shard 1's mail lands at a timestamp shard 0 has already
// executed past (lookahead deliberately mis-declared as huge).
TEST(ParallelEngine, LookaheadViolationFailsLoudly) {
  sim::Simulation sim(7);
  sim.configureParallel(sim::ParallelConfig{1, 2});
  sim.setLookahead(sim::sec(10));  // wildly optimistic: windows open too far
  {
    sim::ShardScope scope(sim, 1);
    sim.at(sim::msec(1), [&sim] {
      // Posted mid-window: by the mis-declared lookahead shard 0 has already
      // executed through sec(10) when this mail is drained.
      sim.postToShard(0, sim::msec(2), [] {});
    });
  }
  sim.at(sim::sec(5), [] {});  // keeps shard 0's window wide open
  EXPECT_THROW(sim.runUntil(sim::sec(6)), std::logic_error);
  EXPECT_EQ(sim.pastWindowPosts(), 1u);
}

#endif  // NDEBUG

// ---- Shard-tagged event ids -------------------------------------------

TEST(ParallelEngine, EventIdsCarryShardTagAndRouteCancel) {
  sim::Simulation sim(3);
  sim.configureParallel(sim::ParallelConfig{1, 3});
  sim.setLookahead(sim::msec(1));
  sim::EventId onShard2;
  {
    sim::ShardScope scope(sim, 2);
    onShard2 = sim.after(sim::msec(5), [] { FAIL() << "cancelled event ran"; });
  }
  EXPECT_EQ(sim::EventQueue::idShardTag(onShard2), 2u);
  sim::EventId onShard0 = sim.after(sim::msec(5), [] {});
  EXPECT_EQ(sim::EventQueue::idShardTag(onShard0), 0u);
  // cancel() routes through the tag with no scope active.
  EXPECT_TRUE(sim.cancel(onShard2));
  EXPECT_FALSE(sim.cancel(onShard2));  // stale now
  sim.runUntil(sim::msec(10));
}

TEST(ParallelEngine, ConfigureRejectsBadShapes) {
  sim::Simulation sim(1);
  EXPECT_THROW(sim.configureParallel(sim::ParallelConfig{0, 1}),
               std::invalid_argument);
  EXPECT_THROW(sim.configureParallel(sim::ParallelConfig{1, 300}),
               std::invalid_argument);
  sim.after(0, [] {});
  sim.runAll();
  // After anything executed, resharding is off the table.
  EXPECT_THROW(sim.configureParallel(sim::ParallelConfig{1, 2}),
               std::logic_error);
}

TEST(ParallelEngine, ShardedRunRequiresLookahead) {
  sim::Simulation sim(1);
  sim.configureParallel(sim::ParallelConfig{1, 2});
  sim.after(sim::msec(1), [] {});
  EXPECT_THROW(sim.runUntil(sim::msec(2)), std::logic_error);
  sim.setLookahead(sim::usec(100));
  EXPECT_NO_THROW(sim.runUntil(sim::msec(2)));
}

// ---- Deterministic mail merge -----------------------------------------

// Three shards post to shard 0 at identical timestamps; the merge order at
// the boundary must be (when, source shard, source sequence) regardless of
// post order within the round.
TEST(ParallelEngine, MailMergesByTimestampShardAndSequence) {
  sim::Simulation sim(5);
  sim.configureParallel(sim::ParallelConfig{1, 4});
  sim.setLookahead(sim::msec(1));
  std::vector<std::string> order;
  const sim::SimTime when = sim::msec(10);
  // All three shards post within the same window (identical post times, so
  // one drain batch sees all four mails); delivery must come out 1a, 1b, 2,
  // 3 — ordered by (timestamp, source shard, per-source sequence) — no
  // matter that shard 3's post was registered first.
  {
    sim::ShardScope scope(sim, 3);
    sim.at(sim::msec(1), [&] { sim.postToShard(0, when, [&] { order.push_back("3"); }); });
  }
  {
    sim::ShardScope scope(sim, 1);
    sim.at(sim::msec(1), [&] {
      sim.postToShard(0, when, [&] { order.push_back("1a"); });
      sim.postToShard(0, when, [&] { order.push_back("1b"); });
    });
  }
  {
    sim::ShardScope scope(sim, 2);
    sim.at(sim::msec(1), [&] { sim.postToShard(0, when, [&] { order.push_back("2"); }); });
  }
  sim.runUntil(sim::msec(20));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "1a");
  EXPECT_EQ(order[1], "1b");
  EXPECT_EQ(order[2], "2");
  EXPECT_EQ(order[3], "3");
}

// Same-shard posts behave exactly like at(): schedulable and cancellable.
TEST(ParallelEngine, SameShardPostSchedulesDirectly) {
  sim::Simulation sim(5);
  bool ran = false;
  const sim::EventId id = sim.postToShard(0, sim::msec(1), [&] { ran = true; });
  EXPECT_NE(id, sim::kInvalidEvent);
  sim.runUntil(sim::msec(2));
  EXPECT_TRUE(ran);
}

// ---- The property: sharded == serial, thread-count-invariant ----------

/// A ring of N recording nodes. Node i sends a paced unicast stream to node
/// i+1 (every receiver has in-degree 1, so cross-shard merge order is
/// unambiguous and a sharded run must replay the serial run byte-for-byte).
class RecordingNode : public net::NetNode {
 public:
  RecordingNode(net::Network& network, std::string name)
      : NetNode(network, std::move(name)) {}

  void onPacket(net::Packet&& packet) override {
    std::ostringstream row;
    row << network().sim().now() << '|' << packet.src << '|' << packet.bytes;
    log.push_back(row.str());
  }

  std::vector<std::string> log;
};

struct RingResult {
  std::vector<std::vector<std::string>> logs;  // per node
  std::uint64_t executed = 0;
};

RingResult runRing(std::uint64_t seed, unsigned nodes, unsigned shards,
                   unsigned threads) {
  sim::Simulation sim(seed);
  if (shards > 1) {
    sim.configureParallel(
        sim::ParallelConfig{threads, (shards + threads - 1) / threads});
  }
  net::Network network(sim);
  std::vector<std::unique_ptr<RecordingNode>> ring;
  for (unsigned i = 0; i < nodes; ++i) {
    sim::ShardScope scope(sim, shards > 1 ? (i % shards) : 0);
    ring.push_back(std::make_unique<RecordingNode>(
        network, "node-" + std::to_string(i)));
  }
  net::ChannelConfig cc;
  cc.propagationDelay = sim::msec(1);
  for (unsigned i = 0; i < nodes; ++i) {
    network.link(*ring[i], *ring[(i + 1) % nodes], cc);
  }
  network.primeRoutes();
  if (shards > 1) {
    sim.setLookahead(network.minCrossShardPropagation());
  }
  // Each node paces packets to its ring successor with a node-specific
  // phase and a seeded size stream.
  for (unsigned i = 0; i < nodes; ++i) {
    sim::ShardScope scope(sim, shards > 1 ? (i % shards) : 0);
    auto stream = std::make_shared<sim::RandomStream>(
        sim.stream("ring:" + std::to_string(i)));
    const net::NodeId src = ring[i]->id();
    const net::NodeId dst = ring[(i + 1) % nodes]->id();
    net::Network* np = &network;
    sim.at(sim::msec(2) + sim::usec(137 * i), [=] {
      // First packet, then self-paced resends.
      struct Pacer {
        static void send(net::Network& net, net::NodeId src, net::NodeId dst,
                         const std::shared_ptr<sim::RandomStream>& stream,
                         unsigned i) {
          net::Packet p;
          p.src = src;
          p.dst = dst;
          p.bytes = 200 + static_cast<std::int64_t>(stream->uniformInt(0, 1000));
          net.forward(src, std::move(p));
          net.sim().after(sim::msec(7) + sim::usec(211 * i), [&net, src, dst,
                                                             stream, i] {
            send(net, src, dst, stream, i);
          });
        }
      };
      Pacer::send(*np, src, dst, stream, i);
    });
  }
  RingResult out;
  out.executed = sim.runUntil(sim::sec(1));
  for (auto& n : ring) out.logs.push_back(std::move(n->log));
  return out;
}

TEST(ParallelEngineProperty, ShardedRunsReplaySerialExactly) {
  std::mt19937 rng(20260808u);
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t seed = rng();
    const unsigned nodes = 4 + (rng() % 7);  // 4..10
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " nodes=" + std::to_string(nodes));
    const RingResult serial = runRing(seed, nodes, /*shards=*/1, 1);
    for (const unsigned shards : {2u, 4u}) {
      const RingResult sharded = runRing(seed, nodes, shards, /*threads=*/1);
      ASSERT_EQ(sharded.logs.size(), serial.logs.size());
      for (std::size_t i = 0; i < serial.logs.size(); ++i) {
        EXPECT_EQ(sharded.logs[i], serial.logs[i]) << "node " << i << " with "
                                                   << shards << " shards";
      }
      EXPECT_EQ(sharded.executed, serial.executed);
    }
  }
}

TEST(ParallelEngineProperty, OutputsIndependentOfThreadCount) {
  const std::uint64_t seed = 99173;
  const unsigned nodes = 8;
  const RingResult one = runRing(seed, nodes, /*shards=*/4, /*threads=*/1);
  const RingResult two = runRing(seed, nodes, /*shards=*/4, /*threads=*/2);
  const RingResult four = runRing(seed, nodes, /*shards=*/4, /*threads=*/4);
  EXPECT_EQ(one.logs, two.logs);
  EXPECT_EQ(one.logs, four.logs);
  EXPECT_EQ(one.executed, two.executed);
  EXPECT_EQ(one.executed, four.executed);
}

TEST(ParallelEngineProperty, SameSeedShardedRunsAreByteIdentical) {
  const RingResult a = runRing(4242, 6, /*shards=*/3, /*threads=*/1);
  const RingResult b = runRing(4242, 6, /*shards=*/3, /*threads=*/1);
  EXPECT_EQ(a.logs, b.logs);
  EXPECT_EQ(a.executed, b.executed);
}

}  // namespace
}  // namespace softqos
