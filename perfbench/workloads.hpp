// The four benchmark workloads. Each runs episodes of fixed simulated (or
// operation) length until the run's time budget is spent, checks its
// outputs, and reports the end-to-end metrics (untraced run) or the
// per-layer table (traced run).
#pragma once

#include "common.hpp"

namespace perfbench {

void runFig3(const Options& options, Report& report);
void runCity(const Options& options, Report& report);
void runChaos(const Options& options, Report& report);
void runChurn(const Options& options, Report& report);

/// Layers accumulated over a run's traced episodes: counts are taken from
/// the first episode (every episode of one seed must repeat them exactly),
/// times are averaged per episode, percentiles come from the caller.
class LayerEpisodes {
 public:
  void add(const Layers& episode) { episodes_.push_back(episode); }
  [[nodiscard]] bool empty() const { return episodes_.empty(); }
  /// True when every episode repeated the first episode's counts.
  [[nodiscard]] bool countsRepeat() const;
  [[nodiscard]] Layers combined() const;

 private:
  std::vector<Layers> episodes_;
};

}  // namespace perfbench
