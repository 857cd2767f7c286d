// Flame-graph aggregation over retained episode span trees.
//
// Where the critical-path analyzer answers "where did *this* episode's
// latency go", the flame graph answers the aggregate question: across every
// retained tree, which call stacks (episode -> diagnose -> rule -> rpc)
// accumulated the most sim-clock self-time. Frames are span names (the
// instrumented vocabulary: "episode:*", "diagnose", "rule:<name>",
// "rpc:<method>", ...). Each node's envelope is partitioned *exclusively*:
// children are allocated disjoint subintervals in start order (overlap
// between concurrent siblings goes to the earlier-starting one), subtrees
// are clipped to their allocation, and the parent's self-weight is whatever
// no child claimed — so self-weights sum identically to the root envelope
// durations, overlap or not.
//
// Two export formats:
//   * collapsed()       Brendan Gregg collapsed-stack lines
//                       ("a;b;c <weight>\n", sorted), ready for
//                       flamegraph.pl or speedscope's importer;
//   * speedscopeJson()  a speedscope "sampled" profile (one sample per
//                       unique stack, weighted, unit microseconds).
//
// Aggregation state is a sorted map keyed by the frame stack and all inputs
// are consumed in canonical trace order, so both exports are byte-identical
// across shard and worker counts for the same retained set.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sampler.hpp"
#include "sim/time.hpp"

namespace softqos::obs {

struct FlameConfig {
  /// Suffix each frame with "@<component>". Off by default so stacks
  /// aggregate across hosts (1024 per-host frames make poor flame graphs);
  /// turn on to split the same pipeline stage by host.
  bool includeComponent = false;
};

class FlameGraph {
 public:
  explicit FlameGraph(FlameConfig config = {});

  /// Fold one mint-ordered span tree into the aggregate. Trees without a
  /// root are counted in skipped() and ignored.
  void add(const std::vector<SampledSpan>& spans);

  /// Fold every *complete* retained trace, in canonical trace order;
  /// incomplete trees (open roots at shutdown) count as skipped.
  void addRetained(const TraceSampler& sampler);

  /// Brendan Gregg collapsed-stack format: "frame;frame;... weight\n" per
  /// unique stack, sorted by stack; weights are sim-clock microseconds.
  [[nodiscard]] std::string collapsed() const;

  /// speedscope (https://www.speedscope.app) JSON, "sampled" profile with
  /// one weighted sample per unique stack.
  [[nodiscard]] std::string speedscopeJson(
      std::string_view profileName = "softqos episodes") const;

  /// Aggregated stacks and their self-weights (sorted by stack).
  [[nodiscard]] const std::map<std::vector<std::string>, sim::SimDuration>&
  stacks() const {
    return stacks_;
  }
  /// Total self-weight == sum of folded root envelope durations.
  [[nodiscard]] sim::SimDuration totalWeight() const { return total_; }
  [[nodiscard]] std::uint64_t tracesAdded() const { return added_; }
  [[nodiscard]] std::uint64_t skipped() const { return skipped_; }

  [[nodiscard]] const FlameConfig& config() const { return config_; }

 private:
  FlameConfig config_;
  std::map<std::vector<std::string>, sim::SimDuration> stacks_;
  sim::SimDuration total_ = 0;
  std::uint64_t added_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace softqos::obs
