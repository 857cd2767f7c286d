// Microbenchmarks for the discrete-event kernel hot paths: schedule/cancel
// churn (the RPC-timeout pattern), recurring-timer storms (sensor ticks, CPU
// quanta), metric recording, disabled tracing, and an end-to-end testbed run.
//
// A developer tool, run directly (--benchmark_filter=<name>); end-to-end
// numbers come from perfbench (perfbench/README.md). Benchmark names stay
// stable so the figures cited in DESIGN.md and EXPERIMENTS.md can be re-run.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/testbed.hpp"
#include "net/packet.hpp"
#include "sim/rollup.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace softqos;

// RPC-timeout pattern: against a standing population of near-term pending
// events, each operation arms a timeout far beyond all of them and cancels
// it before it fires (responses almost always beat their timeout).
void ScheduleCancelChurn(benchmark::State& state) {
  const auto standing = static_cast<std::size_t>(state.range(0));
  sim::Simulation s;
  std::uint64_t fired = 0;
  std::vector<sim::EventId> keep;
  keep.reserve(standing);
  for (std::size_t i = 0; i < standing; ++i) {
    keep.push_back(s.after(sim::sec(60) + sim::msec(static_cast<std::int64_t>(i)),
                           [&fired] { ++fired; }));
  }
  for (auto _ : state) {
    const sim::EventId id = s.after(sim::sec(3600), [&fired] { ++fired; });
    s.cancel(id);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(ScheduleCancelChurn)->Arg(64)->Arg(1024)->Arg(16384);

// Drain pattern: schedule near-future one-shot events and execute them,
// above `range(1)` standing far-future events that never fire. 11k standing
// is the 1024-host city's heap; 0 is the two-host testbed's shallow one.
void ScheduleFireDrain(benchmark::State& state) {
  const auto batch = static_cast<std::int64_t>(state.range(0));
  const auto standing = static_cast<std::int64_t>(state.range(1));
  sim::Simulation s;
  std::uint64_t fired = 0;
  for (std::int64_t i = 0; i < standing; ++i) {
    s.after(sim::sec(3600) + i, [&fired] { ++fired; });
  }
  for (auto _ : state) {
    const sim::SimTime until = s.now() + 7;
    for (std::int64_t i = 0; i < batch; ++i) {
      s.after(i % 7, [&fired] { ++fired; });
    }
    s.runUntil(until);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(ScheduleFireDrain)->Args({1024, 0})->Args({1024, 11000});

// One network hop's two events: a serialization event and a delivery event,
// each carrying a net::Packet plus the node it goes to (the channel delivery
// closure's capture, 56 bytes on x86-64). Each hop's capture is moved from
// the first event into the second, as a packet crossing a link would be.
void PacketHopDrain(benchmark::State& state) {
  const auto hops = static_cast<std::int64_t>(state.range(0));
  struct Sink {
    sim::Simulation sim;
    std::int64_t bytes = 0;
  } sink;
  for (auto _ : state) {
    const sim::SimTime until = sink.sim.now() + 8;
    for (std::int64_t i = 0; i < hops; ++i) {
      net::Packet p;
      p.messageId = static_cast<std::uint64_t>(i);
      p.bytes = 1500;
      auto serialized = [to = &sink, p = std::move(p)]() mutable {
        auto delivered = [to, p = std::move(p)] { to->bytes += p.bytes; };
        static_assert(sizeof(delivered) == sizeof(void*) + sizeof(net::Packet));
        to->sim.after(1, std::move(delivered));
      };
      static_assert(sizeof(serialized) == sizeof(void*) + sizeof(net::Packet));
      sink.sim.after(i % 7, std::move(serialized));
    }
    sink.sim.runUntil(until);
  }
  benchmark::DoNotOptimize(sink.bytes);
  state.SetItemsProcessed(state.iterations() * hops * 2);
}
BENCHMARK(PacketHopDrain)->Arg(1024);

// Recurring-timer storm: `range(0)` tickers at 1ms, simulating 100ms per
// iteration (the sensor-tick / CPU-quantum / traffic-pacing shape).
void PeriodicTickStorm(benchmark::State& state) {
  const auto tickers = static_cast<std::size_t>(state.range(0));
  sim::Simulation s;
  struct Ticker {
    sim::Simulation& s;
    std::uint64_t ticks = 0;
    sim::EventId ev = sim::kInvalidEvent;
    explicit Ticker(sim::Simulation& sm) : s(sm) {}
    void arm() {
      ev = s.after(sim::msec(1), [this] {
        ++ticks;
        arm();
      });
    }
  };
  std::vector<std::unique_ptr<Ticker>> ts;
  for (std::size_t i = 0; i < tickers; ++i) {
    ts.push_back(std::make_unique<Ticker>(s));
    ts.back()->arm();
  }
  std::uint64_t total = 0;
  for (auto _ : state) {
    s.runUntil(s.now() + sim::msec(100));
  }
  for (const auto& t : ts) total += t->ticks;
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations() * tickers * 100);
}
BENCHMARK(PeriodicTickStorm)->Arg(4)->Arg(64);

// Same storm through first-class periodic events: one slot per ticker,
// re-armed in place instead of a fresh schedule() per tick.
void PeriodicTickStormEvery(benchmark::State& state) {
  const auto tickers = static_cast<std::size_t>(state.range(0));
  sim::Simulation s;
  std::vector<std::uint64_t> ticks(tickers, 0);
  std::vector<sim::EventId> evs;
  evs.reserve(tickers);
  for (std::size_t i = 0; i < tickers; ++i) {
    evs.push_back(s.every(sim::msec(1), [&ticks, i] { ++ticks[i]; }));
  }
  std::uint64_t total = 0;
  for (auto _ : state) {
    s.runUntil(s.now() + sim::msec(100));
  }
  for (const sim::EventId ev : evs) s.cancel(ev);
  for (const std::uint64_t t : ticks) total += t;
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations() * tickers * 100);
}
BENCHMARK(PeriodicTickStormEvery)->Arg(4)->Arg(64);

// String-keyed metric recording (the seed API; kept as the comparison
// baseline for the handle-based path). The series is cleared every 64Ki
// samples so the benchmark measures steady-state recording, not the memory
// wall of an unbounded vector.
void MetricSampleByName(benchmark::State& state) {
  sim::MetricRegistry m;
  sim::SimTime t = 0;
  std::size_t n = 0;
  for (auto _ : state) {
    m.sample("app.video.fps", ++t, 29.7);
    if (++n == 65536) {
      n = 0;
      m.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(MetricSampleByName);

// Handle-based recording: intern once, record through the pointer. Same
// periodic clear as the by-name variant (clear() invalidates handles, so
// re-intern — the amortized cost is part of the deal).
void MetricSampleHandle(benchmark::State& state) {
  sim::MetricRegistry m;
  sim::Series fps = m.seriesHandle("app.video.fps");
  sim::SimTime t = 0;
  std::size_t n = 0;
  for (auto _ : state) {
    fps.record(++t, 29.7);
    if (++n == 65536) {
      n = 0;
      m.clear();
      fps = m.seriesHandle("app.video.fps");
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(MetricSampleHandle);

void MetricCounterByName(benchmark::State& state) {
  sim::MetricRegistry m;
  for (auto _ : state) {
    m.count("host.client.dispatches");
  }
  benchmark::DoNotOptimize(m.counter("host.client.dispatches"));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(MetricCounterByName);

void MetricCounterHandle(benchmark::State& state) {
  sim::MetricRegistry m;
  sim::Counter dispatches = m.counterHandle("host.client.dispatches");
  for (auto _ : state) {
    dispatches.add();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(dispatches.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(MetricCounterHandle);

// Handle-based histogram recording (reaction latencies, RPC round trips):
// one log2 + a bucket bump, no string lookup.
void MetricHistogramHandle(benchmark::State& state) {
  sim::MetricRegistry m;
  sim::HistogramHandle lat = m.histogramHandle("qos.reaction_latency_us");
  double v = 1.0;
  for (auto _ : state) {
    lat.record(v);
    v = v < 1.0e6 ? v * 1.3 : 1.0;
  }
  benchmark::DoNotOptimize(lat.get());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(MetricHistogramHandle);

// The same histogram recording while a RollupWindow tracks the metric: the
// rollup snapshots only inside tick(), so arming it must leave the
// per-sample path untouched (compare against MetricHistogramHandle — the
// acceptance bar is <= 5 ns of added per-site cost, expected ~0).
void MetricHistogramHandleRolledUp(benchmark::State& state) {
  sim::Simulation s;
  sim::MetricRegistry m;
  sim::RollupWindow rollup(s, m, {});
  rollup.trackHistogram("qos.reaction_latency_us");
  sim::HistogramHandle lat = m.histogramHandle("qos.reaction_latency_us");
  double v = 1.0;
  for (auto _ : state) {
    lat.record(v);
    v = v < 1.0e6 ? v * 1.3 : 1.0;
  }
  benchmark::DoNotOptimize(lat.get());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(MetricHistogramHandleRolledUp);

// The cold-path cost of cutting one rollup window with a host-manager-sized
// tracked set (5 counters + 4 histograms): snapshot, delta, ring push.
void RollupTick(benchmark::State& state) {
  sim::Simulation s;
  sim::MetricRegistry m;
  sim::RollupWindow rollup(s, m, {});
  std::vector<sim::Counter> counters;
  std::vector<sim::HistogramHandle> histograms;
  for (const char* name : {"c.a", "c.b", "c.c", "c.d", "c.e"}) {
    rollup.trackCounter(name);
    counters.push_back(m.counterHandle(name));
  }
  for (const char* name : {"h.a", "h.b", "h.c", "h.d"}) {
    rollup.trackHistogram(name);
    histograms.push_back(m.histogramHandle(name));
  }
  double v = 1.0;
  for (auto _ : state) {
    for (sim::Counter& c : counters) c.add(3);
    for (sim::HistogramHandle& h : histograms) {
      h.record(v);
      v = v < 1.0e6 ? v * 1.7 : 1.0;
    }
    rollup.tick();
  }
  benchmark::DoNotOptimize(rollup.ticks());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(RollupTick);

// Serialize + parse one published window (the telemetry RPC wire cost).
void TelemetrySnapshotRoundTrip(benchmark::State& state) {
  sim::Simulation s;
  sim::MetricRegistry m;
  sim::RollupWindow rollup(s, m, {});
  rollup.trackCounter("hm.reports");
  rollup.trackHistogram("qos.reaction_latency_us");
  sim::Counter reports = m.counterHandle("hm.reports");
  sim::HistogramHandle lat = m.histogramHandle("qos.reaction_latency_us");
  reports.add(40);
  for (double v = 1.0; v < 1e6; v *= 1.3) lat.record(v);
  rollup.tick();
  const sim::TelemetrySnapshot snap =
      sim::TelemetrySnapshot::fromWindow("bench-host", *rollup.latest());
  for (auto _ : state) {
    const std::string wire = snap.serialize();
    auto parsed = sim::TelemetrySnapshot::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(TelemetrySnapshotRoundTrip);

// The per-call-site cost of span instrumentation when observability is off
// (the default): load the observer pointer, branch, skip. Every instrumented
// component pays exactly this in a disabled run.
void SpanSiteDisabled(benchmark::State& state) {
  sim::Simulation s;  // no observer attached
  std::uint64_t spans = 0;
  for (auto _ : state) {
    sim::SpanObserver* o = s.observer();
    if (o != nullptr) {
      o->instant(s.now(), sim::TraceContext{}, "bench", "bench");
      ++spans;
    }
    benchmark::DoNotOptimize(o);
  }
  benchmark::DoNotOptimize(spans);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(SpanSiteDisabled);

// Disabled tracing where the message is still materialized at the call site.
void TraceDisabledEager(benchmark::State& state) {
  sim::Simulation s;  // trace level defaults to kOff
  std::uint64_t pid = 0;
  for (auto _ : state) {
    s.debug("qoshm:client", "boost pid " + std::to_string(++pid) + " by 10");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(TraceDisabledEager);

// Lazy form: the message lambda is never invoked when the level is disabled.
void TraceDisabledLazy(benchmark::State& state) {
  sim::Simulation s;  // trace level defaults to kOff
  std::uint64_t pid = 0;
  for (auto _ : state) {
    ++pid;
    s.debug("qoshm:client", [&] {
      return "boost pid " + std::to_string(pid) + " by 10";
    });
    benchmark::DoNotOptimize(pid);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(TraceDisabledLazy);

// End-to-end: the fig3 testbed (video + managers + cross traffic) for one
// simulated second, construction included.
void Fig3EndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    apps::TestbedConfig cfg;
    cfg.seed = 42;
    apps::Testbed tb(cfg);
    tb.startVideo();
    tb.setCrossTraffic(6.0);
    const double fps = tb.measureFps(sim::sec(1));
    benchmark::DoNotOptimize(fps);
  }
}
BENCHMARK(Fig3EndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
