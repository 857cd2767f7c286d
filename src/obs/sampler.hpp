// Tail-based trace sampling: the one trace store of the observability plane.
//
// obs::TraceSampler implements sim::SpanObserver as a *deferred-decision*
// sink: during the run each shard appends fixed-size span records to its own
// buffer (no locks, no cross-shard state — the sampler is shardSafe() and
// stays attached through windowed parallel runs). At deterministic flush
// points (between runs, on the sim clock) the per-shard buffers are k-way
// merged in (when, shard, seq) order — the same tie-break the kernel uses
// for cross-shard mail — and folded into per-trace pending trees. When a
// trace completes (root span closed, no spans still open) a retention policy
// decides its fate:
//
//   * a span/instant whose name starts with a configured trigger prefix
//     (fault localization, contract-plane events, ...) retains the trace;
//   * an explicit annotate(ctx, "sampler.retain", reason) retains it;
//   * a root duration >= slowThreshold (deadline violation) retains it;
//   * a slowest-K reservoir retains the K slowest completed traces seen so
//     far (streaming top-K under a total order, so the surviving set is
//     independent of completion interleaving);
//   * a seeded per-trace baseline draw retains a configured fraction of
//     healthy traces (hash of the trace's shard-invariant key, no stream
//     state, so the decision is independent of processing order);
//   * everything else folds its root duration into the sampler's private
//     stats registry and is dropped.
//
// Keeping every trace is one policy among these: baselineProbability = 1
// with maxRetainedSpans = 0 retains everything, which is how the two-host
// Testbed traces (the city samples).
//
// Provisional trace/span ids are minted per shard as
// (1<<48) | shard<<40 | seq. All such ids render as exactly 15 decimal
// digits, so RPC frames and report payloads carrying a serialized context
// have the same byte length at every shard count — payload length feeds the
// simulated transmission time, so this keeps serial and sharded runs
// behaviorally identical. Exports renumber retained traces canonically
// (sorted by root start/name/component), which makes the retained set
// byte-identical across shard *and* worker counts.
//
// Memory is bounded everywhere: per-shard record buffers, the pending
// (incomplete-trace) set and the retained store all have caps, and every
// eviction is counted and deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/simulation.hpp"
#include "sim/span.hpp"

namespace softqos::obs {

struct SamplerConfig {
  /// Span/instant name prefixes that force retention of the whole trace.
  std::vector<std::string> retainNamePrefixes = {"fault-localization",
                                                 "contract:"};
  /// Retain traces whose root span lasted at least this long (0 = off).
  sim::SimDuration slowThreshold = 0;
  /// A trace whose root closed only graduates at a flush() once the root
  /// has been closed at least this long (sim time): asynchronous spans that
  /// trail the root close — a domain manager's diagnosis finishing under an
  /// already-cleared episode — still land in the tree instead of orphaning.
  /// 0 graduates at the first flush after the root closes.
  sim::SimDuration completionLinger = sim::msec(50);
  /// Keep the K slowest completed traces regardless of triggers (0 = off).
  std::size_t slowestReservoir = 0;
  /// Fraction of otherwise-dropped traces retained as a healthy baseline,
  /// decided by a seeded hash of the trace key (0 = off).
  double baselineProbability = 0.0;
  /// Per-shard span-record buffer cap; records past it are dropped and
  /// counted. Sized for the interval between flushes.
  std::size_t maxRecordsPerShard = 1u << 20;
  /// Incomplete traces kept pending across flushes; the oldest (by root
  /// start) are evicted past this and counted.
  std::size_t maxPendingTraces = 8192;
  /// Total spans across retained traces; the oldest retained traces are
  /// evicted past this (reservoir members are exempt until they lose their
  /// reservoir slot).
  std::size_t maxRetainedSpans = 1u << 16;
};

/// One reconstructed span of a retained trace (provisional ids; exports
/// remap them to canonical ones).
struct SampledSpan {
  std::uint64_t spanId = 0;
  std::uint64_t parentSpanId = 0;  // 0 = root
  sim::SimTime start = 0;
  sim::SimTime end = -1;  // -1 = never closed (shutdown artifact)
  std::string name;
  std::string component;
  std::vector<std::pair<std::string, std::string>> annotations;

  [[nodiscard]] bool open() const { return end < 0; }
};

/// One retained trace: the reconstructed span tree plus why it was kept.
struct SampledTrace {
  std::uint64_t provisionalTraceId = 0;
  sim::SimTime rootStart = 0;
  sim::SimTime rootEnd = -1;
  std::string rootName;
  std::string rootComponent;
  /// "trigger:<prefix>", "mark:<reason>", "slow", "reservoir", "baseline".
  std::string reason;
  /// False when the trace never completed (flushed open at shutdown).
  bool complete = true;
  std::vector<SampledSpan> spans;

  [[nodiscard]] sim::SimDuration rootDuration() const {
    return rootEnd >= rootStart ? rootEnd - rootStart : 0;
  }
};

class TraceSampler final : public sim::SpanObserver {
 public:
  /// Attaches to `sim`. The sampler must outlive its attachment (detach()
  /// or destruction ends it).
  explicit TraceSampler(sim::Simulation& sim, SamplerConfig config = {});
  ~TraceSampler() override;

  TraceSampler(const TraceSampler&) = delete;
  TraceSampler& operator=(const TraceSampler&) = delete;

  void detach();

  // -- sim::SpanObserver --------------------------------------------------
  [[nodiscard]] bool shardSafe() const override { return true; }
  sim::TraceContext beginTrace(sim::SimTime now, std::string_view name,
                               std::string_view component) override;
  sim::TraceContext beginSpan(sim::SimTime now, const sim::TraceContext& parent,
                              std::string_view name,
                              std::string_view component) override;
  void endSpan(sim::SimTime now, const sim::TraceContext& span) override;
  void annotate(const sim::TraceContext& span, std::string_view key,
                std::string_view value) override;
  sim::TraceContext instant(sim::SimTime now, const sim::TraceContext& parent,
                            std::string_view name,
                            std::string_view component) override;

  /// Annotation key that force-retains the enclosing trace.
  static constexpr std::string_view kRetainKey = "sampler.retain";

  // -- flush / results ----------------------------------------------------

  /// Merge the per-shard buffers and resolve completed traces. Must be
  /// called between runs (never while worker threads execute); calling it
  /// at the same sim times makes serial and sharded runs resolve the same
  /// retained set.
  void flush();

  /// flush(), then resolve every still-pending trace: traces held back only
  /// by the completion linger resolve as complete, genuinely open ones as
  /// incomplete (their retention policy still applies, minus the
  /// slow/reservoir tests that need a closed root). Call once at end of run.
  void finalFlush();

  /// Retained traces in retention order (reservoir members included, in
  /// their current reservoir order, after the policy-retained ones).
  [[nodiscard]] std::vector<const SampledTrace*> retained() const;

  /// Retained traces in canonical order (sorted by root start/name/
  /// component): the trace at index i has canonical id i + 1. Exports and
  /// the analysis plane read this one list, so they agree on trace order
  /// at every shard and worker count. The list is valid until the next
  /// flush.
  [[nodiscard]] const std::vector<const SampledTrace*>& canonical() const;

  /// Canonical id of a retained trace's provisional id; nullopt when the
  /// trace was dropped.
  [[nodiscard]] std::optional<std::uint64_t> canonicalTraceId(
      std::uint64_t provisionalTraceId) const;

  // -- counters ------------------------------------------------------------
  [[nodiscard]] std::uint64_t totalTraces() const { return totalTraces_; }
  [[nodiscard]] std::uint64_t totalSpans() const { return totalSpans_; }
  [[nodiscard]] std::uint64_t retainedCount() const { return retainedCount_; }
  [[nodiscard]] std::uint64_t droppedTraces() const { return droppedTraces_; }
  /// Records lost to a full per-shard buffer (silent-truncation signal).
  [[nodiscard]] std::uint64_t droppedRecords() const;
  /// Records referencing a trace already evicted from the pending set.
  [[nodiscard]] std::uint64_t orphanRecords() const { return orphanRecords_; }
  [[nodiscard]] std::uint64_t evictedPending() const { return evictedPending_; }
  [[nodiscard]] std::uint64_t evictedRetained() const {
    return evictedRetained_;
  }
  [[nodiscard]] std::uint64_t reservoirEvictions() const {
    return reservoirEvictions_;
  }
  /// Spans currently held across retained + reservoir traces.
  [[nodiscard]] std::size_t retainedSpanCount() const {
    return retainedSpans_;
  }

  /// Private stats registry: dropped-trace duration histograms
  /// ("sampler.dropped_duration_us", plus one per root name) and decision
  /// counters. Never attached to the simulation, so arming the sampler
  /// cannot perturb a run's metric digests.
  [[nodiscard]] const sim::MetricRegistry& stats() const { return stats_; }

  [[nodiscard]] const SamplerConfig& config() const { return config_; }

 private:
  enum class Op : std::uint8_t { kBegin, kEnd, kAnnotate };

  struct Rec {
    sim::SimTime when = 0;
    std::uint32_t shard = 0;
    std::uint64_t seq = 0;
    Op op = Op::kBegin;
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentSpanId = 0;  // kBegin only
    std::string a;                   // kBegin: name; kAnnotate: key
    std::string b;                   // kBegin: component; kAnnotate: value
  };

  struct ShardBuf {
    std::vector<Rec> recs;
    std::uint64_t nextSeq = 1;
    std::uint64_t dropped = 0;
  };

  struct Pending {
    SampledTrace trace;
    std::map<std::uint64_t, std::size_t> spanIndex;  // spanId -> spans index
    int openSpans = 0;
    bool rootClosed = false;
    bool sawRoot = false;
    std::string retainReason;  // non-empty once a trigger/mark fired
  };

  [[nodiscard]] ShardBuf& buf();
  [[nodiscard]] std::uint64_t mintId(ShardBuf& b);
  void push(Rec rec);
  void ingest(Rec& rec);
  /// Resolve one completed (or force-closed) trace against the policy.
  void resolve(Pending&& pending, bool complete);
  void retain(SampledTrace&& trace, std::string reason);
  void dropFold(const SampledTrace& trace);
  void enforcePendingCap();
  void enforceRetainedCap();
  void rebuildCanonical() const;

  /// Shard-invariant total order on traces: (rootStart, rootName,
  /// rootComponent, provisionalTraceId). The provisional-id tie-break is
  /// only reached for traces identical in time, name and component.
  [[nodiscard]] static bool traceKeyLess(const SampledTrace& x,
                                         const SampledTrace& y);

  sim::Simulation* sim_ = nullptr;
  std::uint64_t seed_ = 0;
  SamplerConfig config_;
  std::vector<std::unique_ptr<ShardBuf>> buffers_;  // one slot per shard id

  std::map<std::uint64_t, Pending> pending_;  // provisional trace id ->
  std::deque<SampledTrace> retained_;         // retention order
  std::vector<SampledTrace> reservoir_;       // slowest-K, sorted slowest-first
  // Lazily rebuilt on the first canonical()/canonicalTraceId() after a
  // flush.
  mutable std::vector<const SampledTrace*> canonicalOrder_;
  mutable std::map<std::uint64_t, std::uint64_t> canonical_;
  mutable bool canonicalDirty_ = false;

  sim::MetricRegistry stats_;
  sim::HistogramHandle droppedDuration_;
  std::size_t retainedSpans_ = 0;
  std::uint64_t totalTraces_ = 0;
  std::uint64_t totalSpans_ = 0;
  std::uint64_t retainedCount_ = 0;
  std::uint64_t droppedTraces_ = 0;
  std::uint64_t orphanRecords_ = 0;
  std::uint64_t evictedPending_ = 0;
  std::uint64_t evictedRetained_ = 0;
  std::uint64_t reservoirEvictions_ = 0;
};

}  // namespace softqos::obs
