// ShardPlanner invariants: every node assigned exactly once, pins honoured,
// the greedy cut never worse than naive round-robin on random topologies,
// and full determinism (same graph -> same plan, independent of insertion
// order games).
#include "net/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace softqos::net {
namespace {

std::string nodeName(int i) {
  std::string name = "n";
  name += std::to_string(i);
  return name;
}

struct RandomGraph {
  int nodes = 0;
  std::vector<std::tuple<int, int, double>> edges;
  std::vector<double> loads;
};

RandomGraph makeGraph(std::uint32_t seed, int nodes, int extraEdges) {
  RandomGraph g;
  g.nodes = nodes;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> weight(0.5, 8.0);
  std::uniform_real_distribution<double> load(0.5, 3.0);
  std::uniform_int_distribution<int> pick(0, nodes - 1);
  for (int i = 0; i < nodes; ++i) g.loads.push_back(load(rng));
  // A connected chain first, then random chords.
  for (int i = 1; i < nodes; ++i) {
    g.edges.emplace_back(i - 1, i, weight(rng));
  }
  for (int e = 0; e < extraEdges; ++e) {
    int a = pick(rng), b = pick(rng);
    if (a == b) continue;
    g.edges.emplace_back(a, b, weight(rng));
  }
  return g;
}

ShardPlanner plannerFor(const RandomGraph& g) {
  ShardPlanner p;
  for (int i = 0; i < g.nodes; ++i) p.addNode(nodeName(i), g.loads[i]);
  for (const auto& [a, b, w] : g.edges) p.addEdge(nodeName(a), nodeName(b), w);
  return p;
}

double roundRobinCut(const RandomGraph& g, std::uint32_t shards) {
  double cut = 0;
  for (const auto& [a, b, w] : g.edges) {
    if (a % static_cast<int>(shards) != b % static_cast<int>(shards)) cut += w;
  }
  return cut;
}

TEST(PartitionTest, EveryNodeAssignedExactlyOnce) {
  for (std::uint32_t seed : {1u, 7u, 23u, 99u, 1234u}) {
    const RandomGraph g = makeGraph(seed, 40, 60);
    const ShardPlan plan = plannerFor(g).plan(ShardPlanConfig{4, 1.25});
    ASSERT_EQ(plan.assignment.size(), static_cast<std::size_t>(g.nodes))
        << "seed " << seed;
    for (int i = 0; i < g.nodes; ++i) {
      const auto it = plan.assignment.find(nodeName(i));
      ASSERT_NE(it, plan.assignment.end()) << "seed " << seed << " node " << i;
      EXPECT_GE(it->second, 0);
      EXPECT_LT(it->second, 4);
    }
  }
}

TEST(PartitionTest, CutNeverWorseThanRoundRobinBaseline) {
  for (std::uint32_t seed : {3u, 11u, 42u, 77u, 500u, 9001u}) {
    const RandomGraph g = makeGraph(seed, 48, 96);
    const ShardPlan plan = plannerFor(g).plan(ShardPlanConfig{6, 1.25});
    const double baseline = roundRobinCut(g, 6);
    EXPECT_LE(plan.crossShardWeight, baseline) << "seed " << seed;
  }
}

TEST(PartitionTest, PinsAreHonoured) {
  const RandomGraph g = makeGraph(5, 24, 30);
  ShardPlanner p = plannerFor(g);
  p.pin(nodeName(0), 0);
  p.pin(nodeName(1), 2);
  p.pin(nodeName(2), 3);
  const ShardPlan plan = p.plan(ShardPlanConfig{4, 1.25});
  EXPECT_EQ(plan.shardOf(nodeName(0)), 0);
  EXPECT_EQ(plan.shardOf(nodeName(1)), 2);
  EXPECT_EQ(plan.shardOf(nodeName(2)), 3);
}

TEST(PartitionTest, PinBeyondShardCountIsClamped) {
  ShardPlanner p;
  p.addNode("a");
  p.addNode("b");
  p.pin("a", 9);
  const ShardPlan plan = p.plan(ShardPlanConfig{2, 1.25});
  EXPECT_LT(plan.shardOf("a"), 2);
}

TEST(PartitionTest, DeterministicAcrossInsertionOrder) {
  const RandomGraph g = makeGraph(17, 32, 48);
  ShardPlanner forward = plannerFor(g);

  ShardPlanner reversed;
  for (int i = g.nodes - 1; i >= 0; --i) {
    reversed.addNode(nodeName(i), g.loads[static_cast<std::size_t>(i)]);
  }
  for (auto it = g.edges.rbegin(); it != g.edges.rend(); ++it) {
    const auto& [a, b, w] = *it;
    reversed.addEdge(nodeName(b), nodeName(a), w);  // also flip endpoints
  }

  const ShardPlan p1 = forward.plan(ShardPlanConfig{4, 1.25});
  const ShardPlan p2 = reversed.plan(ShardPlanConfig{4, 1.25});
  EXPECT_EQ(p1.assignment, p2.assignment);
  EXPECT_DOUBLE_EQ(p1.crossShardWeight, p2.crossShardWeight);
}

TEST(PartitionTest, RepeatedEdgesAccumulate) {
  ShardPlanner p;
  p.addNode("a", 1);
  p.addNode("b", 1);
  p.addNode("c", 1);
  // a-b mentioned twice (and once reversed): total weight 3, which must beat
  // the single a-c edge of weight 2 when only one merge fits.
  p.addEdge("a", "b", 1);
  p.addEdge("b", "a", 1);
  p.addEdge("a", "b", 1);
  p.addEdge("a", "c", 2);
  // capacity = max(1, 3/2 * 1.4) = 2.1: one merge fits, a second would not.
  const ShardPlan plan = p.plan(ShardPlanConfig{2, 1.4});
  EXPECT_EQ(plan.shardOf("a"), plan.shardOf("b"));
  EXPECT_NE(plan.shardOf("a"), plan.shardOf("c"));
  EXPECT_DOUBLE_EQ(plan.totalEdgeWeight, 5.0);
  EXPECT_DOUBLE_EQ(plan.crossShardWeight, 2.0);
}

TEST(PartitionTest, LoadBalancedWithinSlack) {
  for (std::uint32_t seed : {2u, 8u, 64u}) {
    const RandomGraph g = makeGraph(seed, 36, 20);
    const ShardPlanConfig cfg{4, 1.25};
    const ShardPlan plan = plannerFor(g).plan(cfg);
    double total = 0;
    for (double l : plan.shardLoad) total += l;
    double maxNode = 0;
    for (double l : g.loads) maxNode = std::max(maxNode, l);
    // No shard may exceed the advertised capacity bound plus one component
    // worth of slop from the final packing pass (a component is at most the
    // capacity itself, so 2x capacity is the hard ceiling).
    const double capacity =
        std::max(maxNode, total / cfg.shards * cfg.capacitySlack);
    for (double l : plan.shardLoad) {
      EXPECT_LE(l, 2 * capacity) << "seed " << seed;
    }
  }
}

TEST(PartitionTest, EmptyPlannerYieldsEmptyPlan) {
  ShardPlanner p;
  const ShardPlan plan = p.plan(ShardPlanConfig{4, 1.25});
  EXPECT_TRUE(plan.assignment.empty());
  EXPECT_DOUBLE_EQ(plan.crossShardWeight, 0.0);
}

}  // namespace
}  // namespace softqos::net
