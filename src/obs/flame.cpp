#include "obs/flame.hpp"

#include <algorithm>
#include <utility>

#include "obs/export.hpp"
#include "obs/span_tree.hpp"

namespace softqos::obs {
namespace {

[[nodiscard]] std::string frameName(const SampledSpan& span,
                                    const FlameConfig& config) {
  if (!config.includeComponent || span.component.empty()) return span.name;
  std::string out = span.name;
  out += '@';
  out += span.component;
  return out;
}

}  // namespace

FlameGraph::FlameGraph(FlameConfig config) : config_(config) {}

void FlameGraph::add(const std::vector<SampledSpan>& spans) {
  const std::optional<SpanTree> treeOpt = SpanTree::build(spans);
  if (!treeOpt) {
    ++skipped_;
    return;
  }
  const SpanTree& tree = *treeOpt;
  ++added_;

  // Iterative DFS carrying the frame stack and each node's *allocated*
  // interval. A node's window [lo, hi) is partitioned exclusively: children
  // are allocated disjoint subintervals in start order (overlap between
  // concurrent siblings is credited to the earlier-starting one, ties to
  // mint order), each subtree is clipped to its allocation, and the parent
  // keeps whatever no child claimed. Exclusive partition makes the tree's
  // self-weights sum *identically* to the root envelope — the invariant the
  // critical-path analyzer and the bench gates rely on — even when sibling
  // spans overlap in time.
  struct Item {
    std::size_t idx;
    sim::SimTime lo, hi;
    bool entered;
  };
  std::vector<std::string> frames;
  std::vector<Item> work;
  work.push_back({tree.root, spans[tree.root].start, tree.effEnd[tree.root],
                  false});
  while (!work.empty()) {
    const Item item = work.back();
    if (item.entered) {
      frames.pop_back();
      work.pop_back();
      continue;
    }
    // Flag via the container, not a reference: the push_back below may
    // reallocate.
    work.back().entered = true;
    frames.push_back(frameName(spans[item.idx], config_));

    std::vector<std::size_t> kids = tree.children[item.idx];
    std::sort(kids.begin(), kids.end(),
              [&spans](std::size_t a, std::size_t b) {
                if (spans[a].start != spans[b].start) {
                  return spans[a].start < spans[b].start;
                }
                return a < b;  // mint order: deterministic tie-break
              });
    sim::SimTime cursor = item.lo;
    sim::SimDuration covered = 0;
    std::vector<Item> alloc;
    alloc.reserve(kids.size());
    for (const std::size_t child : kids) {
      const sim::SimTime a = std::max(spans[child].start, cursor);
      const sim::SimTime b = std::min(tree.effEnd[child], item.hi);
      if (b <= a) continue;  // fully shadowed by an earlier sibling
      alloc.push_back({child, a, b, false});
      covered += b - a;
      cursor = b;
    }
    const sim::SimDuration self = (item.hi - item.lo) - covered;
    if (self > 0) {
      stacks_[frames] += self;
      total_ += self;
    }
    for (std::size_t i = alloc.size(); i-- > 0;) work.push_back(alloc[i]);
  }
}

void FlameGraph::addRetained(const TraceSampler& sampler) {
  for (const SampledTrace* t : sampler.canonical()) {
    if (!t->complete) {
      ++skipped_;
      continue;
    }
    add(t->spans);
  }
}

std::string FlameGraph::collapsed() const {
  std::string out;
  for (const auto& [frames, weight] : stacks_) {
    std::string line;
    for (const std::string& frame : frames) {
      if (!line.empty()) line += ';';
      line += frame;
    }
    out += line;
    out += ' ';
    out += std::to_string(weight);
    out += '\n';
  }
  return out;
}

std::string FlameGraph::speedscopeJson(std::string_view profileName) const {
  // Intern frames in first-appearance order over the sorted stacks.
  std::map<std::string, std::size_t> frameIndex;
  std::vector<const std::string*> frameNames;
  for (const auto& [frames, weight] : stacks_) {
    for (const std::string& frame : frames) {
      const auto [it, inserted] = frameIndex.emplace(frame, frameNames.size());
      if (inserted) frameNames.push_back(&it->first);
    }
  }

  std::string out;
  out += "{\n  \"$schema\": \"https://www.speedscope.app/file-format-schema.json\",\n";
  out += "  \"shared\": {\"frames\": [";
  for (std::size_t i = 0; i < frameNames.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"name\": \"";
    appendJsonEscaped(out, *frameNames[i]);
    out += "\"}";
  }
  out += "]},\n  \"profiles\": [{\n    \"type\": \"sampled\",\n    \"name\": \"";
  appendJsonEscaped(out, profileName);
  out += "\",\n    \"unit\": \"microseconds\",\n    \"startValue\": 0,\n";
  out += "    \"endValue\": " + std::to_string(total_) + ",\n";
  out += "    \"samples\": [";
  bool first = true;
  for (const auto& [frames, weight] : stacks_) {
    if (!first) out += ", ";
    first = false;
    out += '[';
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(frameIndex[frames[i]]);
    }
    out += ']';
  }
  out += "],\n    \"weights\": [";
  first = true;
  for (const auto& [frames, weight] : stacks_) {
    if (!first) out += ", ";
    first = false;
    out += std::to_string(weight);
  }
  out += "]\n  }]\n}\n";
  return out;
}

}  // namespace softqos::obs
