#include "obs/export.hpp"

#include <cassert>
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/span_tree.hpp"

namespace softqos::obs {

void appendJsonEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

namespace {

void appendDouble(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

/// One histogram as a JSON object: summary stats, quantiles, and the raw
/// occupied buckets as [lower_bound, count] pairs so offline tooling can
/// re-derive any quantile (or re-merge across runs) without the library.
/// Buckets carrying an exemplar additionally list it under "exemplars";
/// with a sampler given, each exemplar resolves its canonical retained
/// trace id ("sampled_trace", 0 = the trace was dropped).
void appendHistogramJson(std::string& out, const sim::Histogram& h,
                         const TraceSampler* sampler = nullptr) {
  out += "{\"count\":";
  out += std::to_string(h.count());
  out += ",\"mean\":";
  appendDouble(out, h.mean());
  out += ",\"min\":";
  appendDouble(out, h.min());
  out += ",\"max\":";
  appendDouble(out, h.max());
  out += ",\"p50\":";
  appendDouble(out, h.p50());
  out += ",\"p90\":";
  appendDouble(out, h.p90());
  out += ",\"p99\":";
  appendDouble(out, h.p99());
  out += ",\"buckets\":[";
  bool first = true;
  const auto& buckets = h.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "[";
    appendDouble(out, sim::Histogram::bucketLowerBound(i));
    out += ",";
    out += std::to_string(buckets[i]);
    out += "]";
  }
  out += "]";
  if (!h.exemplars().empty()) {
    out += ",\"exemplars\":[";
    first = true;
    for (const auto& [idx, ex] : h.exemplars()) {
      if (!first) out += ",";
      first = false;
      out += "{\"bucket\":";
      appendDouble(out, sim::Histogram::bucketLowerBound(idx));
      out += ",\"trace\":\"";
      out += std::to_string(ex.traceId);
      out += "\",\"value\":";
      appendDouble(out, ex.value);
      out += ",\"when\":";
      out += std::to_string(ex.when);
      if (sampler != nullptr) {
        out += ",\"sampled_trace\":\"";
        const auto canonical = sampler->canonicalTraceId(ex.traceId);
        out += std::to_string(canonical.value_or(0));
        out += "\"";
      }
      out += "}";
    }
    out += "]";
  }
  out += "}";
}

/// The shared "counters"/"series"/"histograms" body of metricsJson.
void appendMetricsBody(std::string& out, const sim::MetricRegistry& metrics) {
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : metrics.counters()) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    appendJsonEscaped(out, name);
    out += "\":";
    out += std::to_string(value);
  }
  out += "\n},\n\"series\":{";
  first = true;
  for (const auto& [name, series] : metrics.allSeries()) {
    const sim::Summary& s = series.summary();
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    appendJsonEscaped(out, name);
    out += "\":{\"count\":";
    out += std::to_string(s.count());
    out += ",\"mean\":";
    appendDouble(out, s.mean());
    out += ",\"min\":";
    appendDouble(out, s.min());
    out += ",\"max\":";
    appendDouble(out, s.max());
    out += ",\"stddev\":";
    appendDouble(out, s.stddev());
    out += "}";
  }
  out += "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, h] : metrics.allHistograms()) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    appendJsonEscaped(out, name);
    out += "\":";
    appendHistogramJson(out, h);
  }
  out += "\n}";
}

}  // namespace

std::string chromeTraceJson(const TraceSampler& sampler) {
  // Canonical order: trace i has canonical id i + 1. Span ids restart from
  // 1 and grow in record order across traces, so the whole document is a
  // pure function of the retained set.
  const std::vector<const SampledTrace*>& traces = sampler.canonical();

  std::string out;
  out += "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t nextSpanId = 1;
  for (std::size_t ti = 0; ti < traces.size(); ++ti) {
    const SampledTrace* t = traces[ti];
    const std::uint64_t tid = ti + 1;
    const auto& spans = t->spans;
    const std::size_t n = spans.size();
    // The sampler opens a trace only on its root's begin record, so every
    // retained trace has a root and the build cannot fail.
    const std::optional<SpanTree> tree = SpanTree::build(spans);
    assert(tree.has_value());

    // Provisional -> canonical span ids, in record order.
    std::unordered_map<std::uint64_t, std::uint64_t> canon;
    canon.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      canon.emplace(spans[i].spanId, nextSpanId + i);
    }

    for (std::size_t i = 0; i < n; ++i) {
      const SampledSpan& s = spans[i];
      if (!first) out += ",";
      first = false;
      out += "\n{\"name\":\"";
      appendJsonEscaped(out, s.name);
      out += "\",\"cat\":\"";
      appendJsonEscaped(out, s.component);
      out += "\",\"ph\":\"X\",\"ts\":";
      out += std::to_string(s.start);
      out += ",\"dur\":";
      out += std::to_string(tree->effEnd[i] - s.start);
      out += ",\"pid\":1,\"tid\":";
      out += std::to_string(tid);
      out += ",\"args\":{\"span_id\":\"";
      out += std::to_string(canon[s.spanId]);
      if (s.parentSpanId != 0) {
        out += "\",\"parent_span_id\":\"";
        const auto it = canon.find(s.parentSpanId);
        out += std::to_string(it != canon.end() ? it->second : 0);
      }
      out += "\"";
      if (s.parentSpanId == 0) {
        out += ",\"retain_reason\":\"";
        appendJsonEscaped(out, t->reason);
        out += "\",\"complete\":\"";
        out += t->complete ? "1" : "0";
        out += "\"";
      }
      for (const auto& [key, value] : s.annotations) {
        out += ",\"";
        appendJsonEscaped(out, key);
        out += "\":\"";
        appendJsonEscaped(out, value);
        out += "\"";
      }
      out += "}}";
    }
    nextSpanId += n;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string metricsJson(const sim::MetricRegistry& metrics,
                        const sim::Trace* trace, const TraceSampler* sampler,
                        const CriticalPathAnalyzer* analyzer) {
  std::string out;
  out += "{\n";
  appendMetricsBody(out, metrics);
  if (trace == nullptr && sampler == nullptr && analyzer == nullptr) {
    out += "\n}\n";
    return out;
  }
  out += ",\n\"observability\":{";
  bool first = true;
  const auto section = [&out, &first](const char* name) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    out += name;
    out += "\":";
  };
  const auto field = [&out](const char* key, std::uint64_t value, bool& inner) {
    if (!inner) out += ",";
    inner = false;
    out += "\"";
    out += key;
    out += "\":";
    out += std::to_string(value);
  };
  if (trace != nullptr) {
    section("trace_ring");
    bool inner = true;
    out += "{";
    field("records", trace->records().size(), inner);
    field("max_records", trace->maxRecords(), inner);
    field("dropped_records", trace->droppedRecords(), inner);
    out += "}";
  }
  if (sampler != nullptr) {
    section("sampler");
    bool inner = true;
    out += "{";
    field("total_traces", sampler->totalTraces(), inner);
    field("total_spans", sampler->totalSpans(), inner);
    field("retained_traces", sampler->retainedCount(), inner);
    field("retained_spans", sampler->retainedSpanCount(), inner);
    field("dropped_traces", sampler->droppedTraces(), inner);
    field("dropped_records", sampler->droppedRecords(), inner);
    field("orphan_records", sampler->orphanRecords(), inner);
    field("evicted_pending", sampler->evictedPending(), inner);
    field("evicted_retained", sampler->evictedRetained(), inner);
    field("reservoir_evictions", sampler->reservoirEvictions(), inner);
    out += ",\"retention_ratio\":";
    appendDouble(out,
                 sampler->totalTraces() == 0
                     ? 0.0
                     : static_cast<double>(sampler->retainedCount()) /
                           static_cast<double>(sampler->totalTraces()));
    out += "}";
  }
  if (analyzer != nullptr) {
    section("analyzer");
    bool inner = true;
    out += "{";
    field("episodes_analyzed", analyzer->episodesAnalyzed(), inner);
    field("incomplete_skipped", analyzer->incompleteSkipped(), inner);
    field("non_episode_skipped", analyzer->nonEpisodeSkipped(), inner);
    field("orphan_spans", analyzer->orphanSpans(), inner);
    out += "}";
  }
  out += "\n}\n}\n";
  return out;
}

std::string attributionJson(const CriticalPathAnalyzer& analyzer,
                            std::size_t topK) {
  std::string out;
  out += "{\n\"episodes_analyzed\":";
  out += std::to_string(analyzer.episodesAnalyzed());
  out += ",\n\"incomplete_skipped\":";
  out += std::to_string(analyzer.incompleteSkipped());
  out += ",\n\"non_episode_skipped\":";
  out += std::to_string(analyzer.nonEpisodeSkipped());
  out += ",\n\"orphan_spans\":";
  out += std::to_string(analyzer.orphanSpans());
  out += ",\n\"reaction_us\":";
  appendHistogramJson(out, analyzer.reactionHistogram());

  // Per-segment histograms, in pipeline order (absent labels are skipped).
  out += ",\n\"segments\":{";
  bool first = true;
  const auto& segments = analyzer.segmentHistograms();
  for (const std::string& label : allSegmentLabels()) {
    const auto it = segments.find(label);
    if (it == segments.end()) continue;
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    appendJsonEscaped(out, label);
    out += "\":";
    appendHistogramJson(out, it->second);
  }

  out += "\n},\n\"components\":[";
  first = true;
  for (const ComponentBlame& blame : analyzer.componentBlame(topK)) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"component\":\"";
    appendJsonEscaped(out, blame.component);
    out += "\",\"self_us\":";
    out += std::to_string(blame.selfUs);
    out += ",\"wait_us\":";
    out += std::to_string(blame.waitUs);
    out += ",\"segments\":";
    out += std::to_string(blame.segments);
    out += "}";
  }

  out += "\n],\n\"rules\":[";
  first = true;
  for (const RuleBlame& blame : analyzer.ruleBlame(topK)) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"rule\":\"";
    appendJsonEscaped(out, blame.rule);
    out += "\",\"self_us\":";
    out += std::to_string(blame.selfUs);
    out += ",\"segments\":";
    out += std::to_string(blame.segments);
    out += "}";
  }

  out += "\n],\n\"episodes\":[";
  first = true;
  for (const EpisodeAttribution& ep : analyzer.episodes()) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"trace\":\"";
    out += std::to_string(ep.traceId);
    out += "\",\"root\":\"";
    appendJsonEscaped(out, ep.rootName);
    out += "\",\"component\":\"";
    appendJsonEscaped(out, ep.rootComponent);
    out += "\",\"start\":";
    out += std::to_string(ep.rootStart);
    out += ",\"duration_us\":";
    out += std::to_string(ep.rootDuration());
    out += ",\"segments\":[";
    bool firstSeg = true;
    for (const PathSegment& seg : ep.segments) {
      if (!firstSeg) out += ",";
      firstSeg = false;
      out += "{\"segment\":\"";
      appendJsonEscaped(out, seg.segment);
      out += "\",\"span\":\"";
      appendJsonEscaped(out, seg.spanName);
      out += "\",\"component\":\"";
      appendJsonEscaped(out, seg.component);
      out += "\",\"start\":";
      out += std::to_string(seg.start);
      out += ",\"end\":";
      out += std::to_string(seg.end);
      out += ",\"wait\":";
      out += seg.wait ? "true" : "false";
      out += "}";
    }
    out += "]}";
  }
  out += "\n]\n}\n";
  return out;
}

std::vector<BudgetTarget> budgetTargetsFromSlos(const SloTracker& slos) {
  std::vector<BudgetTarget> targets;
  for (const SloTracker::Entry& entry : slos.entries()) {
    if (entry.objective.kind != SloObjective::Kind::kLatencyQuantile) continue;
    if (entry.objective.threshold <= 0) continue;
    BudgetTarget target;
    target.name = entry.objective.name;
    target.tier = "slo";
    target.budgetUs = entry.objective.threshold;
    targets.push_back(std::move(target));
  }
  return targets;
}

std::string latencyBudgetJson(const CriticalPathAnalyzer& analyzer,
                              const std::vector<BudgetTarget>& targets) {
  const sim::Histogram& reaction = analyzer.reactionHistogram();
  const auto& segments = analyzer.segmentHistograms();

  std::string out;
  out += "{\n\"episodes\":";
  out += std::to_string(analyzer.episodesAnalyzed());
  out += ",\n\"mean_reaction_us\":";
  appendDouble(out, reaction.mean());
  out += ",\n\"targets\":[";
  bool first = true;
  for (const BudgetTarget& target : targets) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    appendJsonEscaped(out, target.name);
    out += "\",\"tier\":\"";
    appendJsonEscaped(out, target.tier);
    out += "\",\"budget_us\":";
    appendDouble(out, target.budgetUs);
    out += ",\"over_budget_fraction\":";
    appendDouble(out, target.budgetUs > 0
                          ? reaction.fractionAbove(target.budgetUs)
                          : 0.0);
    out += ",\"segments\":[";
    bool firstSeg = true;
    for (const std::string& label : allSegmentLabels()) {
      const auto it = segments.find(label);
      if (it == segments.end()) continue;
      if (!firstSeg) out += ",";
      firstSeg = false;
      out += "{\"segment\":\"";
      appendJsonEscaped(out, label);
      out += "\",\"mean_us\":";
      appendDouble(out, it->second.mean());
      out += ",\"p99_us\":";
      appendDouble(out, it->second.p99());
      out += ",\"budget_fraction\":";
      appendDouble(out, target.budgetUs > 0
                            ? it->second.mean() / target.budgetUs
                            : 0.0);
      out += "}";
    }
    out += "]}";
  }
  out += "\n]\n}\n";
  return out;
}

std::string domainMetricsJson(const sim::TelemetryAggregator& telemetry,
                              const TraceSampler* sampler) {
  std::string out;
  out += "{\n\"snapshots\":";
  out += std::to_string(telemetry.snapshotsIngested());
  out += ",\n\"sources\":[";
  bool first = true;
  for (const auto& [source, snapshot] : telemetry.latestBySource()) {
    (void)snapshot;
    if (!first) out += ",";
    first = false;
    out += "\"";
    appendJsonEscaped(out, source);
    out += "\"";
  }
  out += "],\n\"counters\":{";
  first = true;
  for (const auto& [name, total] : telemetry.counterTotals()) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    appendJsonEscaped(out, name);
    out += "\":";
    out += std::to_string(total);
  }
  out += "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, h] : telemetry.mergedHistograms()) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    appendJsonEscaped(out, name);
    out += "\":";
    appendHistogramJson(out, h, sampler);
  }
  // Per-host drill-down: the latest published window from each source.
  out += "\n},\n\"latest\":{";
  first = true;
  for (const auto& [source, snapshot] : telemetry.latestBySource()) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    appendJsonEscaped(out, source);
    out += "\":{\"window\":[";
    out += std::to_string(snapshot.windowStart);
    out += ",";
    out += std::to_string(snapshot.windowEnd);
    out += "],\"counters\":{";
    bool firstCounter = true;
    for (const auto& [name, delta] : snapshot.counters) {
      if (!firstCounter) out += ",";
      firstCounter = false;
      out += "\"";
      appendJsonEscaped(out, name);
      out += "\":";
      out += std::to_string(delta);
    }
    out += "}}";
  }
  out += "\n}\n}\n";
  return out;
}

std::string flightRecorderJson(const FlightRecorder& recorder) {
  const auto& counters = recorder.stats().counters();
  const auto counterFor = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it != counters.end() ? it->second : 0;
  };
  // record() kinds: admission verdicts plus ContractEvent::kindName values.
  static constexpr const char* kRateKinds[] = {"admit-full", "degraded",
                                               "restored"};
  static constexpr const char* kErrorKinds[] = {"rejected", "liveliness-lost",
                                                "owner-changed"};
  static constexpr const char* kTiers[] = {"full", "degraded"};

  std::string out;
  out += "{\n\"decisions\":";
  out += std::to_string(recorder.totalRecords());
  out += ",\n\"contracts\":{";
  bool first = true;
  for (const auto& [contract, decisions] : recorder.contractsSeen()) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    appendJsonEscaped(out, contract);
    out += "\":{\"decisions\":";
    out += std::to_string(decisions);
    out += ",\"rate\":{";
    bool inner = true;
    for (const char* kind : kRateKinds) {
      if (!inner) out += ",";
      inner = false;
      out += "\"";
      out += kind;
      out += "\":";
      out += std::to_string(counterFor("flight." + contract + "." + kind));
    }
    out += "},\"errors\":{";
    inner = true;
    for (const char* kind : kErrorKinds) {
      if (!inner) out += ",";
      inner = false;
      out += "\"";
      out += kind;
      out += "\":";
      out += std::to_string(counterFor("flight." + contract + "." + kind));
    }
    out += "},\"residency_us\":{";
    inner = true;
    for (const char* tier : kTiers) {
      const sim::Histogram* h = recorder.stats().histogram(
          "flight." + contract + ".residency_us." + tier);
      if (h == nullptr) continue;
      if (!inner) out += ",";
      inner = false;
      out += "\"";
      out += tier;
      out += "\":";
      appendHistogramJson(out, *h);
    }
    out += "}}";
  }
  out += "\n},\n\"totals\":{";
  first = true;
  for (const auto& [name, value] : counters) {
    // Global counters are "flight.<kind>" — exactly one dot.
    const std::size_t dot = name.find('.');
    if (dot == std::string::npos || name.find('.', dot + 1) != std::string::npos)
      continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    appendJsonEscaped(out, name);
    out += "\":";
    out += std::to_string(value);
  }
  out += "},\n\"log\":[";
  first = true;
  for (const auto& rec : recorder.records()) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"when\":";
    out += std::to_string(rec.when);
    out += ",\"kind\":\"";
    appendJsonEscaped(out, rec.kind);
    out += "\",\"pid\":";
    out += std::to_string(rec.pid);
    out += ",\"contract\":\"";
    appendJsonEscaped(out, rec.contract);
    out += "\",\"detail\":\"";
    appendJsonEscaped(out, rec.detail);
    out += "\"}";
  }
  out += "\n],\n\"dropped_log_records\":";
  out += std::to_string(recorder.droppedRecords());
  out += "\n}\n";
  return out;
}

}  // namespace softqos::obs
