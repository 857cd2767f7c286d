// Critical-path latency attribution over retained episode span trees.
//
// The paper's central quantity is management reaction latency — detect ->
// diagnose -> actuate -> recover (Fig. 3) — and since PR 9 the tail sampler
// retains exactly the interesting episode trees. This analyzer turns a
// retained tree into an answer to "where did the latency go": it walks the
// tree backwards from the envelope-normalized root end, always descending
// into the latest-finishing child, which partitions the whole root duration
// into contiguous critical-path segments, each attributed to exactly one
// span (by construction the segment durations sum to the root's envelope
// duration — the invariant the tests and the bench gate assert).
//
// Each segment carries two classifications:
//
//  * a canonical *segment label* mapping the owning span (and its position
//    under the root) onto the paper's reaction pipeline:
//      sense-report  time between the detection instant and the first
//                    diagnose/decay span — report transit + queueing
//      diagnose      self-time inside diagnose/decay/fault-localization
//                    spans outside any instrumented rule firing
//      rule-match    self-time inside rule:<name> firing spans
//      actuate-rpc   self-time inside rpc:/serve: actuation call spans
//      recover       root-owned time after diagnosis — actuation issued,
//                    waiting for the condition to clear
//      other         anything unrecognized (kept so the sum stays exact)
//
//  * a *wait* bit: a segment whose upper bound is the start of an on-path
//    child owned by a different component is queueing/transit toward that
//    component (the work had been handed off but had not started); segments
//    bounded by same-component children or trailing a span are self-time.
//
// Aggregations: per-segment sim::Histograms (one sample per episode), a
// per-component blame table (self vs wait), and a per-rule table. Everything
// is computed from retained trees in canonical trace order, so every export
// derived from the analyzer is byte-identical across shard and worker counts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sampler.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"

namespace softqos::obs {

/// Canonical segment labels (see file comment).
inline constexpr std::string_view kSegSenseReport = "sense-report";
inline constexpr std::string_view kSegDiagnose = "diagnose";
inline constexpr std::string_view kSegRuleMatch = "rule-match";
inline constexpr std::string_view kSegActuateRpc = "actuate-rpc";
inline constexpr std::string_view kSegRecover = "recover";
inline constexpr std::string_view kSegOther = "other";

/// All labels in canonical (pipeline) order.
[[nodiscard]] const std::vector<std::string>& allSegmentLabels();

/// One critical-path segment: [start, end) attributed to `spanName` on
/// `component`, classified under `segment`.
struct PathSegment {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  std::string segment;
  std::string spanName;
  std::string component;
  bool wait = false;

  [[nodiscard]] sim::SimDuration duration() const { return end - start; }
};

/// One analyzed episode: the critical path of a retained trace.
struct EpisodeAttribution {
  /// Canonical retained id (sampler input); 0 for hand-built trees.
  std::uint64_t traceId = 0;
  std::string rootName;
  std::string rootComponent;
  sim::SimTime rootStart = 0;
  /// Envelope-normalized: covers the latest descendant.
  sim::SimTime rootEnd = 0;
  /// Segments in time order, exactly covering [rootStart, rootEnd].
  std::vector<PathSegment> segments;

  [[nodiscard]] sim::SimDuration rootDuration() const {
    return rootEnd - rootStart;
  }
  /// Sum of all segment durations (== rootDuration() by construction).
  [[nodiscard]] sim::SimDuration segmentSum() const;
  /// Total attributed to one canonical label.
  [[nodiscard]] sim::SimDuration segmentTotal(std::string_view label) const;
};

/// Blame-table rows (microseconds of attributed critical-path time).
struct ComponentBlame {
  std::string component;
  sim::SimDuration selfUs = 0;
  sim::SimDuration waitUs = 0;  // queueing/transit toward this component
  std::uint64_t segments = 0;

  [[nodiscard]] sim::SimDuration totalUs() const { return selfUs + waitUs; }
};

struct RuleBlame {
  std::string rule;
  sim::SimDuration selfUs = 0;
  /// Critical-path segments owned by this rule's firing spans (== firings
  /// for the common leaf-rule case).
  std::uint64_t segments = 0;
};

struct CriticalPathConfig {
  /// Only traces whose root name starts with this prefix are episodes;
  /// everything else (contract instants, ad-hoc traces) is counted and
  /// skipped.
  std::string rootPrefix = "episode";
};

class CriticalPathAnalyzer {
 public:
  explicit CriticalPathAnalyzer(CriticalPathConfig config = {});

  /// Analyze every retained trace, in canonical trace order (the same order
  /// the Chrome exporter uses), so aggregate state and exports are a pure
  /// function of the retained set. Incomplete trees are counted and skipped.
  void analyze(const TraceSampler& sampler);

  /// Analyze one mint-ordered span tree. Returns nullopt (and bumps the
  /// skip counters) when the tree has no closed root or the root name
  /// misses the configured prefix. `traceId` labels the result.
  std::optional<EpisodeAttribution> analyzeTree(
      const std::vector<SampledSpan>& spans, std::uint64_t traceId);

  // -- results -------------------------------------------------------------
  [[nodiscard]] const std::vector<EpisodeAttribution>& episodes() const {
    return episodes_;
  }
  /// Per-label histograms over per-episode attributed microseconds.
  [[nodiscard]] const std::map<std::string, sim::Histogram>&
  segmentHistograms() const {
    return segments_;
  }
  /// End-to-end (envelope) reaction latency per analyzed episode, in us.
  [[nodiscard]] const sim::Histogram& reactionHistogram() const {
    return reaction_;
  }
  /// Components ranked by attributed self-time (ties: wait, then name);
  /// topK == 0 returns every component.
  [[nodiscard]] std::vector<ComponentBlame> componentBlame(
      std::size_t topK = 0) const;
  /// Rules ranked by on-path self-time (ties: name); topK == 0 = all.
  [[nodiscard]] std::vector<RuleBlame> ruleBlame(std::size_t topK = 0) const;

  // -- counters ------------------------------------------------------------
  [[nodiscard]] std::uint64_t episodesAnalyzed() const { return analyzed_; }
  /// Trees skipped because the root never closed (crash artifacts).
  [[nodiscard]] std::uint64_t incompleteSkipped() const { return incomplete_; }
  /// Trees skipped because the root name misses the episode prefix.
  [[nodiscard]] std::uint64_t nonEpisodeSkipped() const { return nonEpisode_; }
  /// Spans excluded because their parent was missing from the tree.
  [[nodiscard]] std::uint64_t orphanSpans() const { return orphanSpans_; }

  [[nodiscard]] const CriticalPathConfig& config() const { return config_; }

 private:
  void accumulate(const EpisodeAttribution& episode);

  CriticalPathConfig config_;
  std::vector<EpisodeAttribution> episodes_;
  std::map<std::string, sim::Histogram> segments_;
  sim::Histogram reaction_;
  std::map<std::string, ComponentBlame> components_;
  std::map<std::string, RuleBlame> rules_;
  std::uint64_t analyzed_ = 0;
  std::uint64_t incomplete_ = 0;
  std::uint64_t nonEpisode_ = 0;
  std::uint64_t orphanSpans_ = 0;
};

}  // namespace softqos::obs
