// Exporters for the observability plane.
//
// chromeTraceJson renders the sampler's retained spans in the Chrome
// trace_event format (ph:"X" complete events, ts/dur in microseconds —
// SimTime's native unit) loadable in chrome://tracing or
// https://ui.perfetto.dev. Each causal chain gets its own tid (= canonical
// trace id) so detection -> diagnosis -> actuation -> recovery chains render
// as one row each.
//
// metricsJson snapshots a MetricRegistry (counters, series summaries,
// histogram quantiles) as a single JSON object for offline analysis.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "sim/metrics.hpp"
#include "sim/rollup.hpp"
#include "sim/trace.hpp"

namespace softqos::obs {

/// The tail sampler's retained traces as a Chrome trace_event JSON document.
/// Trace and span ids are renumbered canonically (traces sorted by root
/// start/name/component, spans in record order), so the document is
/// byte-identical across shard and worker counts. Root spans carry the
/// retention reason and completeness flag in args.
///
/// Span ends are envelope-normalized (SpanTree::build): a parent's duration
/// is extended to cover its latest descendant, so spans that logically end
/// before an async child completes (message-queue hops, RPC replies) still
/// nest properly in the viewer. Open spans close at their latest descendant
/// (or render as instants when childless).
[[nodiscard]] std::string chromeTraceJson(const TraceSampler& sampler);

/// Snapshot of all counters, series and histograms as a JSON object.
/// Histograms carry their summary quantiles plus the raw occupied buckets as
/// [lower_bound, count] pairs — and, when present, per-bucket exemplars as
/// {bucket lower bound, trace id, value, when} — so offline tooling can
/// recompute any quantile or jump from a bucket to a retained trace.
///
/// When any plane is given, an "observability" section surfaces its
/// ring-drop counters: the sim::Trace record ring and the tail sampler, plus
/// the critical-path analyzer's counters (episodes analyzed, incomplete
/// trees skipped, orphan spans) under "analyzer". Silent truncation is
/// thereby visible in the export itself.
[[nodiscard]] std::string metricsJson(
    const sim::MetricRegistry& metrics, const sim::Trace* trace = nullptr,
    const TraceSampler* sampler = nullptr,
    const CriticalPathAnalyzer* analyzer = nullptr);

/// The critical-path analyzer's full result set as a JSON object: analyzer
/// counters, the end-to-end reaction histogram, per-segment histograms in
/// pipeline order, the component and rule blame tables (top `topK`; 0 =
/// all), and every analyzed episode's segment list. Computed from retained
/// trees in canonical order, so the document is byte-identical across shard
/// and worker counts.
[[nodiscard]] std::string attributionJson(const CriticalPathAnalyzer& analyzer,
                                          std::size_t topK = 10);

/// One deadline budget the attribution is judged against.
struct BudgetTarget {
  std::string name;     ///< objective name or contract session label
  std::string tier;     ///< "slo", or the admission tier ("full", "degraded")
  double budgetUs = 0;  ///< the latency budget, in microseconds
};

/// Budget targets from the latency-quantile SLO objectives a tracker holds
/// (thresholds are already in microseconds — the rollup histogram unit).
[[nodiscard]] std::vector<BudgetTarget> budgetTargetsFromSlos(
    const SloTracker& slos);

/// Join segment attribution against deadline budgets: for each target, the
/// fraction of analyzed episodes over budget and each segment's share of the
/// budget (mean attributed time / budget). This is the "which stage spent
/// the deadline" answer per SLO objective and per contract tier.
[[nodiscard]] std::string latencyBudgetJson(
    const CriticalPathAnalyzer& analyzer,
    const std::vector<BudgetTarget>& targets);

/// The domain manager's aggregated telemetry (host-manager rollup windows
/// merged across sources) as a JSON object: domain-wide counter totals,
/// merged histograms, and the latest published window per source host.
/// With a sampler, each exported exemplar additionally carries
/// "sampled_trace", the canonical id of the retained trace it links to (0
/// when the trace was dropped by the retention policy).
[[nodiscard]] std::string domainMetricsJson(
    const sim::TelemetryAggregator& telemetry,
    const TraceSampler* sampler = nullptr);

/// The contract-plane flight recorder as dashboard JSON: per-contract RED
/// tables (Rate = admissions, Errors = rejections / liveliness losses /
/// ownership moves, Duration = per-tier residency histograms), global
/// decision counters, and the bounded decision log.
[[nodiscard]] std::string flightRecorderJson(const FlightRecorder& recorder);

/// Append `text` to `out` as the inside of a JSON string: quotes,
/// backslashes and control bytes escaped.
void appendJsonEscaped(std::string& out, std::string_view text);

}  // namespace softqos::obs
