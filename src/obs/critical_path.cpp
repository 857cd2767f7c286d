#include "obs/critical_path.hpp"

#include <algorithm>
#include <limits>

#include "obs/span_tree.hpp"

namespace softqos::obs {
namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

enum class SpanClass { kDiagnose, kRule, kRpc, kOther };

[[nodiscard]] bool startsWith(const std::string& text, std::string_view prefix) {
  return text.rfind(prefix, 0) == 0;
}

/// Map a non-root span onto its pipeline stage by name. The vocabulary is
/// the instrumented sites': "diagnose"/"decay" (host manager),
/// "fault-localization" + "corrective:*" (domain manager), "rule:<name>"
/// (engine fire hooks), "rpc:*"/"serve:*"/"retry*" (RPC layer).
[[nodiscard]] SpanClass classify(const SampledSpan& span) {
  if (startsWith(span.name, "rule:")) return SpanClass::kRule;
  if (startsWith(span.name, "rpc:") || startsWith(span.name, "serve:") ||
      startsWith(span.name, "retry")) {
    return SpanClass::kRpc;
  }
  if (span.name == "diagnose" || span.name == "decay" ||
      startsWith(span.name, "fault-localization") ||
      startsWith(span.name, "corrective:")) {
    return SpanClass::kDiagnose;
  }
  return SpanClass::kOther;
}

[[nodiscard]] std::string_view labelFor(SpanClass cls) {
  switch (cls) {
    case SpanClass::kDiagnose: return kSegDiagnose;
    case SpanClass::kRule: return kSegRuleMatch;
    case SpanClass::kRpc: return kSegActuateRpc;
    case SpanClass::kOther: return kSegOther;
  }
  return kSegOther;
}

struct Walk {
  const std::vector<SampledSpan>& spans;
  const SpanTree& tree;
  std::size_t rootIdx;
  /// The root's earliest diagnose-class direct child: the gap it bounds is
  /// the sense->report transit; every other root-owned gap is recovery.
  std::size_t firstDiagnose;
  EpisodeAttribution& ep;

  void emit(std::size_t owner, sim::SimTime from, sim::SimTime to,
            std::size_t upper) {
    if (to <= from) return;
    const SampledSpan& s = spans[owner];
    PathSegment seg;
    seg.start = from;
    seg.end = to;
    seg.spanName = s.name;
    seg.component = s.component;
    if (owner == rootIdx) {
      seg.segment = upper != kNpos && upper == firstDiagnose
                        ? std::string(kSegSenseReport)
                        : std::string(kSegRecover);
    } else {
      seg.segment = std::string(labelFor(classify(s)));
    }
    // Queueing/transit: the time was spent waiting for another component's
    // span to start (the work was in flight or queued, not executing here).
    seg.wait = upper != kNpos && spans[upper].component != s.component;
    ep.segments.push_back(std::move(seg));
  }

  /// Attribute [spans[idx].start, until) to idx and its descendants,
  /// descending into the latest-finishing child first (the critical path).
  void run(std::size_t idx, sim::SimTime until) {
    const SampledSpan& s = spans[idx];
    std::vector<std::size_t> kids = tree.children[idx];
    std::sort(kids.begin(), kids.end(),
              [this](std::size_t a, std::size_t b) {
                if (tree.effEnd[a] != tree.effEnd[b]) {
                  return tree.effEnd[a] > tree.effEnd[b];
                }
                if (spans[a].start != spans[b].start) {
                  return spans[a].start > spans[b].start;
                }
                return a > b;  // mint order: deterministic final tie-break
              });
    sim::SimTime t = until;
    std::size_t upper = kNpos;
    for (const std::size_t child : kids) {
      // Fully covered by later-finishing siblings: not on the path.
      if (spans[child].start >= t) continue;
      // Partial overlap: the child still owns its uncovered prefix — it was
      // running when the later-finishing sibling started.
      const sim::SimTime childEnd = std::min(tree.effEnd[child], t);
      if (childEnd < s.start) break;  // defensive: child before parent
      emit(idx, childEnd, t, upper);
      run(child, childEnd);
      t = std::max(spans[child].start, s.start);
      upper = child;
      if (t <= s.start) break;
    }
    emit(idx, s.start, t, upper);
  }
};

}  // namespace

const std::vector<std::string>& allSegmentLabels() {
  static const std::vector<std::string> kLabels = {
      std::string(kSegSenseReport), std::string(kSegDiagnose),
      std::string(kSegRuleMatch),   std::string(kSegActuateRpc),
      std::string(kSegRecover),     std::string(kSegOther)};
  return kLabels;
}

sim::SimDuration EpisodeAttribution::segmentSum() const {
  sim::SimDuration total = 0;
  for (const PathSegment& seg : segments) total += seg.duration();
  return total;
}

sim::SimDuration EpisodeAttribution::segmentTotal(
    std::string_view label) const {
  sim::SimDuration total = 0;
  for (const PathSegment& seg : segments) {
    if (seg.segment == label) total += seg.duration();
  }
  return total;
}

CriticalPathAnalyzer::CriticalPathAnalyzer(CriticalPathConfig config)
    : config_(std::move(config)) {}

std::optional<EpisodeAttribution> CriticalPathAnalyzer::analyzeTree(
    const std::vector<SampledSpan>& spans, std::uint64_t traceId) {
  const std::optional<SpanTree> treeOpt = SpanTree::build(spans);
  if (!treeOpt) {
    ++incomplete_;
    return std::nullopt;
  }
  const SpanTree& tree = *treeOpt;
  orphanSpans_ += tree.orphanSpans;
  const SampledSpan& root = spans[tree.root];
  if (!startsWith(root.name, config_.rootPrefix)) {
    ++nonEpisode_;
    return std::nullopt;
  }
  if (root.open()) {
    ++incomplete_;
    return std::nullopt;
  }

  EpisodeAttribution ep;
  ep.traceId = traceId;
  ep.rootName = root.name;
  ep.rootComponent = root.component;
  ep.rootStart = root.start;
  ep.rootEnd = tree.effEnd[tree.root];

  std::size_t firstDiagnose = kNpos;
  for (const std::size_t child : tree.children[tree.root]) {
    if (classify(spans[child]) != SpanClass::kDiagnose) continue;
    if (firstDiagnose == kNpos ||
        spans[child].start < spans[firstDiagnose].start) {
      firstDiagnose = child;
    }
  }

  Walk walk{spans, tree, tree.root, firstDiagnose, ep};
  walk.run(tree.root, ep.rootEnd);
  std::sort(ep.segments.begin(), ep.segments.end(),
            [](const PathSegment& a, const PathSegment& b) {
              return a.start != b.start ? a.start < b.start : a.end < b.end;
            });
  ++analyzed_;
  accumulate(ep);
  episodes_.push_back(std::move(ep));
  return episodes_.back();
}

void CriticalPathAnalyzer::accumulate(const EpisodeAttribution& ep) {
  reaction_.add(static_cast<double>(ep.rootDuration()));
  std::map<std::string, sim::SimDuration> perLabel;
  for (const PathSegment& seg : ep.segments) {
    perLabel[seg.segment] += seg.duration();

    ComponentBlame& blame = components_[seg.component];
    blame.component = seg.component;
    (seg.wait ? blame.waitUs : blame.selfUs) += seg.duration();
    ++blame.segments;

    if (startsWith(seg.spanName, "rule:")) {
      RuleBlame& rule = rules_[seg.spanName.substr(5)];
      rule.rule = seg.spanName.substr(5);
      rule.selfUs += seg.duration();
      ++rule.segments;
    }
  }
  for (const auto& [label, total] : perLabel) {
    segments_[label].add(static_cast<double>(total));
  }
}

void CriticalPathAnalyzer::analyze(const TraceSampler& sampler) {
  const std::vector<const SampledTrace*>& traces = sampler.canonical();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (!traces[i]->complete) {
      ++incomplete_;
      continue;
    }
    analyzeTree(traces[i]->spans, i + 1);
  }
}

std::vector<ComponentBlame> CriticalPathAnalyzer::componentBlame(
    std::size_t topK) const {
  std::vector<ComponentBlame> out;
  out.reserve(components_.size());
  for (const auto& [name, blame] : components_) out.push_back(blame);
  std::sort(out.begin(), out.end(),
            [](const ComponentBlame& a, const ComponentBlame& b) {
              if (a.selfUs != b.selfUs) return a.selfUs > b.selfUs;
              if (a.waitUs != b.waitUs) return a.waitUs > b.waitUs;
              return a.component < b.component;
            });
  if (topK > 0 && out.size() > topK) out.resize(topK);
  return out;
}

std::vector<RuleBlame> CriticalPathAnalyzer::ruleBlame(std::size_t topK) const {
  std::vector<RuleBlame> out;
  out.reserve(rules_.size());
  for (const auto& [name, blame] : rules_) out.push_back(blame);
  std::sort(out.begin(), out.end(), [](const RuleBlame& a, const RuleBlame& b) {
    if (a.selfUs != b.selfUs) return a.selfUs > b.selfUs;
    return a.rule < b.rule;
  });
  if (topK > 0 && out.size() > topK) out.resize(topK);
  return out;
}

}  // namespace softqos::obs
