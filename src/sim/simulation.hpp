// The softqos discrete-event simulation kernel.
//
// A Simulation owns the clock(s), event queue(s), master RNG seed, metric
// registry and trace sink. All simulated subsystems (hosts, network,
// managers) hold a reference to one Simulation and schedule their work
// through it.
//
// The kernel runs in one of two modes:
//
//  * Single-shard (default): one EventQueue, one clock, strictly serial —
//    bit-compatible with the historical kernel.
//  * Sharded (configureParallel): components are partitioned across shards,
//    each owning a private EventQueue, clock and MetricRegistry. Shards
//    advance in conservative safe windows derived from the minimum
//    cross-shard link latency (the lookahead): every round, the global
//    minimum next-event time T is found and every shard may execute all
//    events with timestamp < T + lookahead, because no in-flight cross-shard
//    message can arrive earlier than that. Cross-shard sends go through
//    postToShard(), which lands them in the target shard's mailbox; mail is
//    merged at the next round boundary in (timestamp, source shard, source
//    sequence) order, making runs byte-identical for a fixed seed and shard
//    count regardless of thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/span.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace softqos::sim {

/// Identifies one shard (a partition of simulated components with its own
/// event queue and clock). Shard 0 always exists.
using ShardId = std::uint32_t;

/// Parallel-execution configuration. The default (1 thread, 1 shard per
/// thread) keeps the kernel in its historical single-shard serial mode.
/// `threads * shardsPerThread` shards are created; worker threads each own a
/// contiguous range of shards, so outputs depend only on the shard count,
/// never on the thread count.
struct ParallelConfig {
  unsigned threads = 1;
  unsigned shardsPerThread = 1;
  [[nodiscard]] unsigned shards() const { return threads * shardsPerThread; }
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time of the current shard (the only meaningful clock
  /// from inside an event callback; between runs all shard clocks agree).
  [[nodiscard]] SimTime now() const { return cur().now; }

  /// Schedule `cb` to run after `delay` ticks (>= 0) on the current shard.
  /// Callbacks are taken by rvalue: a closure is relocated once, into its
  /// event slot, and later invoked there.
  EventId after(SimDuration delay, EventQueue::Callback&& cb);

  /// Schedule `cb` at absolute time `when` (>= now()) on the current shard.
  EventId at(SimTime when, EventQueue::Callback&& cb);

  /// Schedule `cb` to run every `period` ticks (> 0), first at now + period.
  /// The closure is constructed once and reused across occurrences; the
  /// returned id stays valid until cancelled (including from inside `cb`).
  EventId every(SimDuration period, EventQueue::Callback&& cb);

  /// Move a periodic event's next occurrence to now + `period` (from inside
  /// its own callback: fire-time + `period`) and make subsequent occurrences
  /// follow every `period`. Returns false for stale ids / one-shot events.
  /// Routed to the owning shard via the id's shard tag.
  bool reschedule(EventId id, SimDuration period);

  /// Cancel a pending event; returns true if it was still pending. Routed to
  /// the owning shard via the id's shard tag. During threaded execution only
  /// ids owned by the calling shard may be cancelled.
  bool cancel(EventId id);

  /// Run until every event queue drains or the clock reaches `until`.
  /// Events scheduled exactly at `until` do fire. Returns events executed.
  std::uint64_t runUntil(SimTime until);

  /// Run until every event queue drains. Returns events executed.
  std::uint64_t runAll();

  /// Execute exactly one event if available; returns false if queue empty.
  /// Single-shard mode only.
  bool step();

  // ---- Sharding --------------------------------------------------------

  /// Switch the kernel to sharded mode. Must be called before any event has
  /// executed; events already scheduled remain on shard 0. Shard counts are
  /// capped at 256 (ids carry an 8-bit shard tag). A config of
  /// {1 thread, 1 shard} is a no-op that keeps the serial kernel.
  void configureParallel(const ParallelConfig& config);

  /// Conservative lookahead: the minimum latency of any cross-shard link.
  /// Must be > 0 before a sharded run starts (typically derived via
  /// Network::minCrossShardPropagation()).
  void setLookahead(SimDuration lookahead) { lookahead_ = lookahead; }
  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }

  [[nodiscard]] const ParallelConfig& parallel() const { return config_; }
  [[nodiscard]] ShardId shardCount() const {
    return static_cast<ShardId>(shards_.size());
  }

  /// Shard that is currently executing (or, between runs, the shard selected
  /// by the innermost ShardScope; shard 0 by default).
  [[nodiscard]] ShardId currentShard() const { return cur().id; }

  /// Schedule `cb` at absolute time `when` on shard `target`. Same-shard
  /// posts schedule directly (returning a cancellable id); cross-shard posts
  /// land in the target's mailbox — merged in deterministic (when, source
  /// shard, source sequence) order at the next window boundary — and return
  /// kInvalidEvent (cross-shard events cannot be cancelled). Cross-shard
  /// `when` must respect the lookahead contract: >= the end of the current
  /// safe window, which any timestamp >= now() + lookahead satisfies.
  EventId postToShard(ShardId target, SimTime when,
                      EventQueue::Callback&& cb);

  /// Mail that arrived below the target shard's already-executed window and
  /// was rejected (each also threw). Nonzero means a lookahead violation.
  [[nodiscard]] std::uint64_t pastWindowPosts() const {
    return pastWindowPosts_.load(std::memory_order_relaxed);
  }

  /// Derive a named random stream from this simulation's master seed.
  /// Stateless, so shard-safe by construction.
  [[nodiscard]] RandomStream stream(std::string_view name) const {
    return RandomStream(seed_, name);
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// The shard-0 ("global") registry. Setup-time and single-shard metric
  /// recording goes here; in sharded mode, components must record through
  /// localMetrics() instead.
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  /// The current shard's registry (== metrics() on shard 0 and therefore in
  /// all single-shard runs). Components intern their handles through this so
  /// hot-path recording never crosses a shard boundary.
  MetricRegistry& localMetrics() { return registryFor(cur()); }

  /// Registry of a specific shard (shard 0 == metrics()); for merging
  /// per-shard series into one report after a run.
  MetricRegistry& shardMetrics(ShardId shard);

  Trace& trace() { return trace_; }
  EventQueue& queue() { return shard0_->queue; }

  /// Attach (or detach, with nullptr) the causal-tracing observer. The
  /// simulation does not own it; the caller keeps it alive while attached.
  /// Instrumented sites read observer() and skip all span work when it is
  /// null, so an unobserved run schedules no extra events and draws no
  /// extra randomness. Sharded runs require a shardSafe() observer.
  void setObserver(SpanObserver* observer) { observer_ = observer; }
  [[nodiscard]] SpanObserver* observer() const { return observer_; }

  /// Logging helpers stamping the current simulated time. `message` is
  /// either a string or a callable returning one; the level guard runs
  /// first, so a disabled level costs one branch and a callable is never
  /// invoked (a string argument is still built by the caller: pass a
  /// callable on hot paths).
  template <typename Message>
  void debug(std::string_view component, Message&& message) {
    log(TraceLevel::kDebug, component, std::forward<Message>(message));
  }
  template <typename Message>
  void info(std::string_view component, Message&& message) {
    log(TraceLevel::kInfo, component, std::forward<Message>(message));
  }
  template <typename Message>
  void warn(std::string_view component, Message&& message) {
    log(TraceLevel::kWarn, component, std::forward<Message>(message));
  }

 private:
  friend class ShardScope;

  /// One cross-shard message, ordered at the receiving boundary by
  /// (when, fromShard, seq) — the determinism tie-break.
  struct Mail {
    SimTime when = 0;
    ShardId fromShard = 0;
    std::uint64_t seq = 0;
    EventQueue::Callback cb;
  };

  /// A Mail's sort key plus its index in the drained batch: the merge sorts
  /// these, never the Mail records and their callbacks.
  struct MailKey {
    SimTime when;
    ShardId fromShard;
    std::uint64_t seq;
    std::uint32_t index;
    bool operator<(const MailKey& o) const {
      if (when != o.when) return when < o.when;
      if (fromShard != o.fromShard) return fromShard < o.fromShard;
      return seq < o.seq;
    }
  };

  struct Shard {
    EventQueue queue;
    SimTime now = 0;
    /// Events with timestamp strictly below this have all been executed;
    /// incoming mail below it is a lookahead violation.
    SimTime executedThrough = std::numeric_limits<SimTime>::min();
    std::uint64_t outSeq = 0;    // stamps outgoing cross-shard mail
    std::uint64_t executed = 0;  // lifetime events executed on this shard
    ShardId id = 0;
    std::unique_ptr<MetricRegistry> registry;  // null on shard 0
    std::mutex mailMutex;
    std::vector<Mail> mailbox;
    // Owner-only scratch for drainMailbox, kept to reuse its capacity.
    std::vector<Mail> draining;
    std::vector<MailKey> mailOrder;
  };

  /// The shard scheduling calls route to: the executing shard inside a
  /// windowed run, else the ShardScope selection (shard 0 by default).
  [[nodiscard]] Shard& cur() const;

  MetricRegistry& registryFor(Shard& s) {
    return s.registry ? *s.registry : metrics_;
  }

  template <typename Message>
  void log(TraceLevel level, std::string_view component, Message&& message) {
    if (!trace_.enabled(level)) return;
    if constexpr (std::is_invocable_v<Message&>) {
      trace_.log(now(), level, std::string(component), std::string(message()));
    } else {
      trace_.log(now(), level, std::string(component),
                 std::string(std::forward<Message>(message)));
    }
  }

  void executeOne();
  std::uint64_t runSerial(SimTime until, bool bounded);
  std::uint64_t runWindowed(SimTime until);
  void validateWindowedRun() const;

  /// Drain a shard's mailbox into its queue in deterministic order.
  void drainMailbox(Shard& shard);
  /// Execute all of `shard`'s events with timestamp < horizon.
  void executeWindow(Shard& shard, SimTime horizon);

  std::uint64_t seed_;
  ParallelConfig config_;
  SimDuration lookahead_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  Shard* shard0_ = nullptr;       // == shards_[0].get(), cached
  Shard* activeShard_ = nullptr;  // ShardScope / serial-run selection
  bool threadedRun_ = false;      // true only between worker spawn and join
  std::atomic<std::uint64_t> pastWindowPosts_{0};
  MetricRegistry metrics_;
  Trace trace_;
  SpanObserver* observer_ = nullptr;
};

/// RAII selector for the shard that construction-time scheduling and metric
/// interning bind to. Wrap component creation in a ShardScope to place it on
/// a shard; nesting restores the previous selection on destruction.
class ShardScope {
 public:
  ShardScope(Simulation& sim, ShardId shard);
  ~ShardScope();
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  Simulation& sim_;
  Simulation::Shard* prev_;
};

}  // namespace softqos::sim
