// Ablation E4: adaptation dynamics of the Section 2 strategy.
//
// Phase 1 (0-20s): idle system; with a deliberately tight policy band the
//   stream runs "too well" (fps above the band), so the manager repeatedly
//   *reduces* the allocation ("If it exceeds the specified expectation, the
//   resource allocation is reduced" — Section 2).
// Phase 2 (20-70s): a competing load step arrives; the manager searches
//   upward again. The table records the fps / priority trajectory and the
//   summary reports the violation->compliance convergence time.
#include <cstdio>

#include "apps/testbed.hpp"
#include "manager/default_rules.hpp"

using namespace softqos;

int main() {
  apps::TestbedConfig config;
  config.seed = 77;
  // Tight band (23,27) under a 30fps source: idle play exceeds expectations.
  config.policyTargetFps = 25.0;
  config.policyTolUp = 2.0;
  config.policyTolDown = 2.0;
  apps::Testbed bed(config);
  // Align the rule thresholds with this band.
  manager::HostRuleThresholds t;
  t.fpsLow = 23.0;
  t.fpsHigh = 27.0;
  t.fpsModerate = 20.0;
  t.fpsSevere = 12.0;
  bed.clientHm->loadRuleText(manager::defaultHostRules(t));

  bed.startVideo();

  std::printf("E4: adaptation dynamics (load step at t=20s)\n");
  std::printf("%6s %8s %8s %6s %10s %8s %8s\n", "t(s)", "fps", "upri", "rt%",
              "violated", "boosts", "decays");

  sim::SimTime brokenSince = -1;   // post-step: fps first fell out of band
  sim::SimTime recoveredAt = -1;   // fps back above the band's lower edge
  const osim::Pid pid = bed.video->clientPid();
  for (int second = 1; second <= 70; ++second) {
    if (second == 20) bed.clientLoad.setWorkers(3);
    const double fps = bed.measureFps(sim::sec(1));
    const bool violated =
        bed.video->coordinator()->isViolated("NotifyQoSViolation");
    if (second > 20) {
      if (fps < 23.0 && brokenSince < 0) brokenSince = bed.sim.now();
      if (fps >= 23.0 && brokenSince >= 0 && recoveredAt < 0) {
        recoveredAt = bed.sim.now();
      }
    }
    if (second <= 12 || (second >= 18 && second <= 40) || second % 10 == 0) {
      std::printf("%6d %8.1f %8d %6d %10s %8llu %8llu\n", second, fps,
                  bed.clientHm->cpuManager().tsPriority(pid),
                  bed.clientHm->cpuManager().rtShare(pid),
                  violated ? "yes" : "no",
                  static_cast<unsigned long long>(bed.clientHm->boostsApplied()),
                  static_cast<unsigned long long>(bed.clientHm->decaysApplied()));
    }
  }

  std::printf("\nsummary:\n");
  std::printf("  decays in over-provisioned phase: %llu (Section 2: exceeding "
              "expectations frees CPU)\n",
              static_cast<unsigned long long>(bed.clientHm->decaysApplied()));
  if (brokenSince >= 0 && recoveredAt >= 0) {
    std::printf("  post-step throughput collapse -> recovery above the band's "
                "lower edge: %.1f s\n",
                sim::toSeconds(recoveredAt - brokenSince));
  } else {
    std::printf("  post-step recovery: %s\n",
                brokenSince < 0 ? "throughput never left the band"
                                : "not recovered");
  }
  std::printf("  note: with this deliberately tight band a full-speed stream "
              "violates the *upper* edge,\n  so the manager keeps trading "
              "boost/decay around the band (the Section 2 search).\n");
  return 0;
}
