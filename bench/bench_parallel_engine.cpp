// Thread-scaling benchmark for the windowed conservative engine: a
// shard-clean synthetic fabric (a ring of paced traffic nodes, no domain
// manager polling cross-shard state) pinned at 16 shards, driven by 1/2/4/8
// worker threads, against the historical serial kernel on the same scenario.
//
// Reported per configuration:
//   items_per_second   -- simulator events executed per wall-clock second
//   events_per_sec     -- same figure as an explicit counter
//   wall_ms_per_sim_s  -- wall-clock milliseconds spent per simulated second
//
// The shard count is fixed across thread counts, so every row executes the
// byte-identical event schedule — the benchmark isolates the cost/benefit of
// worker threads from any change in simulation behaviour. A developer tool,
// run directly; end-to-end numbers come from perfbench (perfbench/README.md).
// Numbers are only as good as the machine: on a single-core container every
// thread count shares one CPU and the >1-thread rows mostly measure barrier
// overhead; scaling needs real cores.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace softqos;

constexpr unsigned kNodes = 64;
constexpr unsigned kShards = 16;

/// A node that sinks its ring predecessor's traffic and paces its own
/// toward its successor. All state is node-local: shard-clean by design.
class PacedNode : public net::NetNode {
 public:
  PacedNode(net::Network& network, std::string name)
      : NetNode(network, std::move(name)) {}

  void onPacket(net::Packet&& packet) override {
    ++received_;
    bytes_ += packet.bytes;
  }

  void startPacing(net::NodeId dst, sim::SimDuration period,
                   sim::SimTime firstAt) {
    network().sim().at(firstAt, [this, dst, period] { pace(dst, period); });
  }

  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  void pace(net::NodeId dst, sim::SimDuration period) {
    net::Packet p;
    p.src = id();
    p.dst = dst;
    p.bytes = 900;
    network().forward(id(), std::move(p));
    network().sim().after(period, [this, dst, period] { pace(dst, period); });
  }

  std::uint64_t received_ = 0;
  std::int64_t bytes_ = 0;
};

struct Fabric {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<PacedNode>> nodes;
};

/// Build the ring. threads == 0 selects the historical serial kernel
/// (single shard, single event queue); otherwise 16 shards split across
/// `threads` workers.
Fabric buildFabric(unsigned threads) {
  Fabric f;
  f.sim = std::make_unique<sim::Simulation>(1234);
  const bool sharded = threads > 0;
  if (sharded) {
    f.sim->configureParallel(sim::ParallelConfig{threads, kShards / threads});
  }
  f.network = std::make_unique<net::Network>(*f.sim);
  for (unsigned i = 0; i < kNodes; ++i) {
    sim::ShardScope scope(*f.sim, sharded ? (i % kShards) : 0);
    f.nodes.push_back(std::make_unique<PacedNode>(
        *f.network, "node-" + std::to_string(i)));
  }
  net::ChannelConfig cc;
  cc.propagationDelay = sim::msec(1);
  cc.bytesPerSecond = 12.5e6;
  for (unsigned i = 0; i < kNodes; ++i) {
    f.network->link(*f.nodes[i], *f.nodes[(i + 1) % kNodes], cc);
  }
  f.network->primeRoutes();
  if (sharded) {
    f.sim->setLookahead(f.network->minCrossShardPropagation());
  }
  for (unsigned i = 0; i < kNodes; ++i) {
    sim::ShardScope scope(*f.sim, sharded ? (i % kShards) : 0);
    f.nodes[i]->startPacing(f.nodes[(i + 1) % kNodes]->id(),
                            sim::usec(500) + sim::usec(3 * i),
                            sim::msec(1) + sim::usec(17 * i));
  }
  return f;
}

void runFabric(benchmark::State& state, unsigned threads) {
  Fabric f = buildFabric(threads);
  constexpr sim::SimDuration kWindow = sim::msec(250);
  std::uint64_t executed = 0;
  std::uint64_t simNanos = 0;
  const auto wallStart = std::chrono::steady_clock::now();
  for (auto _ : state) {
    executed += f.sim->runUntil(f.sim->now() + kWindow);
    simNanos += static_cast<std::uint64_t>(sim::toSeconds(kWindow) * 1e9);
  }
  const double wallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wallStart)
          .count();
  const double simSec = static_cast<double>(simNanos) / 1e9;
  std::uint64_t received = 0;
  for (const auto& n : f.nodes) received += n->received();
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(static_cast<std::int64_t>(executed));
  if (wallSec > 0 && simSec > 0) {
    state.counters["events_per_sec"] =
        static_cast<double>(executed) / wallSec;
    state.counters["wall_ms_per_sim_s"] = 1000.0 * wallSec / simSec;
  }
}

/// The historical serial kernel on the identical scenario: the floor any
/// thread count must be judged against.
void ParallelEngineSerialBaseline(benchmark::State& state) {
  runFabric(state, 0);
}
BENCHMARK(ParallelEngineSerialBaseline)->Unit(benchmark::kMillisecond);

/// 16 shards, range(0) worker threads — same schedule at every row.
void ParallelEngineThreads(benchmark::State& state) {
  runFabric(state, static_cast<unsigned>(state.range(0)));
}
BENCHMARK(ParallelEngineThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
