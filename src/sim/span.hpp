// Causal-tracing hook for the softqos kernel: a TraceContext identifies one
// span of a detection->diagnosis->actuation->recovery chain, and SpanObserver
// is the abstract sink the Simulation exposes to every subsystem.
//
// The concrete implementation lives in src/obs (the tail sampler and the
// exporters); the kernel and the instrumented subsystems only see this
// interface. With no observer attached (the default) every instrumented site
// costs one pointer load + branch — no events, no random draws, no
// allocations — so runs replay byte-identically to an uninstrumented build.
// Span ids are minted from plain counters, never from a RandomStream, so
// enabled runs stay deterministic too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/text.hpp"
#include "sim/time.hpp"

namespace softqos::sim {

/// Identifies one span: the trace (causal chain) it belongs to, its own id,
/// and its parent span (0 = root). A default-constructed context is invalid
/// and is ignored by every observer entry point.
struct TraceContext {
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
  std::uint64_t parentSpanId = 0;

  [[nodiscard]] bool valid() const { return traceId != 0; }

  /// Compact wire form "traceId:spanId" for RPC frames and report payloads.
  [[nodiscard]] std::string serialize() const {
    return std::to_string(traceId) + ":" + std::to_string(spanId);
  }

  /// Parse the wire form; malformed text yields an invalid context (the
  /// receiver simply records no spans) rather than an error. Both ids must
  /// be strict decimal numbers (sim::parseNumber) that fit in 64 bits and
  /// are nonzero: an overflowing id would alias a real trace, and span 0 is
  /// the root marker.
  static TraceContext parse(std::string_view text) {
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos) return {};
    const auto trace = parseNumber<std::uint64_t>(text.substr(0, colon));
    const auto span = parseNumber<std::uint64_t>(text.substr(colon + 1));
    if (!trace || !span || *trace == 0 || *span == 0) return {};
    return TraceContext{*trace, *span, 0};
  }
};

/// Abstract causal-tracing + profiling sink. All times are simulation-clock
/// microseconds except the explicit wall-clock nanosecond arguments, which
/// exist purely for profiling (they never feed back into simulated state).
class SpanObserver {
 public:
  virtual ~SpanObserver() = default;

  /// Whether this observer may stay attached during a sharded (windowed)
  /// run. Requires every entry point to be safe when called concurrently
  /// from worker threads executing different shards (e.g. by partitioning
  /// all mutable state per shard). The default observer is serial-only.
  [[nodiscard]] virtual bool shardSafe() const { return false; }

  /// Mint a root span (a fresh trace). `name` is the span label, `component`
  /// the emitting subsystem (Chrome-trace category).
  virtual TraceContext beginTrace(SimTime now, std::string_view name,
                                  std::string_view component) = 0;

  /// Open a child span under `parent`. An invalid parent starts a fresh
  /// trace (so call sites never need to special-case the first span).
  virtual TraceContext beginSpan(SimTime now, const TraceContext& parent,
                                 std::string_view name,
                                 std::string_view component) = 0;

  /// Close a span. Unknown/invalid contexts are ignored (the span may have
  /// been evicted by the ring cap).
  virtual void endSpan(SimTime now, const TraceContext& span) = 0;

  /// Attach a key=value annotation to a span (matched facts, attempt counts,
  /// wall-clock costs, ...).
  virtual void annotate(const TraceContext& span, std::string_view key,
                        std::string_view value) = 0;

  /// Record a zero-duration marker under `parent` (alarm raised, retry sent,
  /// actuator invoked, recovery observed).
  virtual TraceContext instant(SimTime now, const TraceContext& parent,
                               std::string_view name,
                               std::string_view component) = 0;

  /// Kernel profiling hook: one event was executed at `now` with `depth`
  /// events still queued, taking `wallNanos` of host time. Called by the
  /// serial kernel only; the default ignores it.
  virtual void onEventExecuted(SimTime /*now*/, std::size_t /*depth*/,
                               std::uint64_t /*wallNanos*/) {}

  /// Component profiling hook: one instrumented callback of `component`
  /// took `wallNanos` of host time. Nothing in the library calls it; the
  /// default ignores it.
  virtual void recordProfile(std::string_view /*component*/,
                             std::uint64_t /*wallNanos*/) {}
};

}  // namespace softqos::sim
