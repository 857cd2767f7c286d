// The one span-tree builder of the observability plane (Chrome-trace export,
// critical-path attribution, flame graphs): index a retained trace's flat
// span list into a parent/children tree and compute envelope-normalized
// effective ends.
//
// Envelope normalization: a span's effective end covers its latest
// descendant, so asynchronous children that outlive their parent
// (message-queue hops, RPC replies, a domain manager's diagnosis landing
// under an already-cleared episode) still nest. Children are always minted
// after their parent — the TraceSampler appends spans in mint order — so
// one reverse pass visits every child before its parent.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "obs/sampler.hpp"
#include "sim/time.hpp"

namespace softqos::obs {

/// One retained trace viewed as a tree. Indices refer to the span vector the
/// tree was built from; the tree never owns the spans.
struct SpanTree {
  std::size_t root = 0;                            // index of the root span
  std::vector<std::vector<std::size_t>> children;  // per span, in mint order
  std::vector<sim::SimTime> effEnd;                // envelope-normalized ends
  /// Spans whose parent id resolved to no span in the list (the parent's
  /// begin record was lost to a buffer cap); they are excluded from the tree.
  std::size_t orphanSpans = 0;

  /// Build from a mint-ordered span list. Returns nullopt when the list is
  /// empty or contains no root (parentSpanId == 0) span; a second root and
  /// its subtree count as orphans.
  [[nodiscard]] static std::optional<SpanTree> build(
      const std::vector<SampledSpan>& spans) {
    if (spans.empty()) return std::nullopt;
    SpanTree tree;
    tree.children.resize(spans.size());
    tree.effEnd.resize(spans.size());

    std::map<std::uint64_t, std::size_t> index;
    bool sawRoot = false;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      index.emplace(spans[i].spanId, i);
      if (spans[i].parentSpanId == 0 && !sawRoot) {
        tree.root = i;
        sawRoot = true;
      }
    }
    if (!sawRoot) return std::nullopt;

    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (i == tree.root) continue;
      const auto parent = index.find(spans[i].parentSpanId);
      if (spans[i].parentSpanId == 0 || parent == index.end()) {
        ++tree.orphanSpans;
        continue;
      }
      tree.children[parent->second].push_back(i);
    }

    // Reverse pass: children are minted after their parent, so every child's
    // envelope is final before its parent's is extended.
    for (std::size_t i = spans.size(); i-- > 0;) {
      const SampledSpan& s = spans[i];
      // max(own end, latest child): children visited earlier may already
      // have propagated into effEnd[i], so extend rather than overwrite.
      const sim::SimTime ownEnd = s.open() ? s.start : s.end;
      if (tree.effEnd[i] < ownEnd) tree.effEnd[i] = ownEnd;
      if (i == tree.root || spans[i].parentSpanId == 0) continue;
      const auto parent = index.find(s.parentSpanId);
      if (parent != index.end() &&
          tree.effEnd[parent->second] < tree.effEnd[i]) {
        tree.effEnd[parent->second] = tree.effEnd[i];
      }
    }
    return tree;
  }
};

}  // namespace softqos::obs
