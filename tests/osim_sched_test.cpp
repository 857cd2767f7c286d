// Scheduler semantics: dispatch-table properties, priorities, preemption,
// cumulative quantum accounting, starvation aging, the RT class and budgeted
// RT grants — the substrate the CPU Resource Manager manipulates.
#include <gtest/gtest.h>

#include "osim/host.hpp"

namespace softqos::osim {
namespace {

void spinLoop(Process& p) {
  if (p.terminated()) return;
  p.compute(sim::msec(10), [&p] { spinLoop(p); });
}

// Interactive: short burst, short sleep (keeps slpret promotion active).
void interactiveLoop(Process& p) {
  if (p.terminated()) return;
  p.compute(sim::msec(5), [&p] {
    p.sleepFor(sim::msec(5), [&p] { interactiveLoop(p); });
  });
}

struct Fixture : ::testing::Test {
  sim::Simulation s{1};
  Host host{s, "h"};
};

// ---- Dispatch table properties (parameterized across all levels) ----

class DispatchTableLevels : public ::testing::TestWithParam<int> {};

TEST_P(DispatchTableLevels, QuantumIsPositiveAndMonotoneByBand) {
  TsDispatchTable t;
  const int level = GetParam();
  EXPECT_GT(t.entry(level).quantum, 0);
  if (level + 10 < TsDispatchTable::kTsLevels) {
    EXPECT_GE(t.entry(level).quantum, t.entry(level + 10).quantum)
        << "higher levels must not get longer quanta";
  }
}

TEST_P(DispatchTableLevels, FeedbackTargetsStayInRange) {
  TsDispatchTable t;
  const int level = GetParam();
  const TsDispatchEntry& e = t.entry(level);
  EXPECT_GE(e.tqexp, 0);
  EXPECT_LT(e.tqexp, TsDispatchTable::kTsLevels);
  EXPECT_LE(e.tqexp, level) << "expiry must not promote";
  EXPECT_GE(e.slpret, level) << "sleep return must not demote";
  EXPECT_LT(e.slpret, TsDispatchTable::kTsLevels);
  EXPECT_GE(e.lwait, level) << "aging must not demote";
}

INSTANTIATE_TEST_SUITE_P(AllLevels, DispatchTableLevels,
                         ::testing::Range(0, TsDispatchTable::kTsLevels));

TEST(DispatchTable, ClampLevel) {
  EXPECT_EQ(TsDispatchTable::clampLevel(-5), 0);
  EXPECT_EQ(TsDispatchTable::clampLevel(0), 0);
  EXPECT_EQ(TsDispatchTable::clampLevel(59), 59);
  EXPECT_EQ(TsDispatchTable::clampLevel(200), 59);
}

// ---- Priority & preemption ----

TEST_F(Fixture, HigherUserPriorityPreempts) {
  auto lo = host.spawn("lo", [](Process& p) { spinLoop(p); });
  s.runUntil(sim::msec(5));
  auto hi = host.spawn("hi", [](Process& p) { spinLoop(p); });
  hi->setTsUserPriority(40);
  s.runUntil(sim::sec(2));
  EXPECT_GT(hi->cpuTime(), lo->cpuTime() * 3);
  EXPECT_GT(lo->preemptions(), 0u);
}

TEST_F(Fixture, UserPriorityClampsToPlusMinus60) {
  auto p = host.spawn("p", [](Process&) {});
  p->setTsUserPriority(100);
  EXPECT_EQ(p->tsUserPriority(), 60);
  p->setTsUserPriority(-100);
  EXPECT_EQ(p->tsUserPriority(), -60);
}

TEST_F(Fixture, RealTimeClassAlwaysBeatsTimeSharing) {
  auto ts = host.spawn("ts", [](Process& p) { spinLoop(p); });
  auto rt = host.spawn("rt", [](Process& p) { spinLoop(p); },
                       SchedClass::kRealTime);
  s.runUntil(sim::sec(2));
  // RT monopolizes; the TS spinner only ran before the RT spawn.
  EXPECT_GT(rt->cpuTime(), sim::msec(1900));
  EXPECT_LT(ts->cpuTime(), sim::msec(100));
}

TEST_F(Fixture, EqualPrioritySharesFairly) {
  std::vector<std::shared_ptr<Process>> ps;
  for (int i = 0; i < 4; ++i) {
    ps.push_back(host.spawn("p" + std::to_string(i),
                            [](Process& p) { spinLoop(p); }));
  }
  s.runUntil(sim::sec(8));
  for (const auto& p : ps) {
    EXPECT_NEAR(sim::toSeconds(p->cpuTime()), 2.0, 0.5);
  }
}

// ---- Quantum accounting ----

TEST_F(Fixture, CumulativeQuantumDemotesCpuBoundWork) {
  auto p = host.spawn("spin", [](Process& q) { spinLoop(q); });
  const int start = p->tsLevel();
  s.runUntil(sim::sec(3));
  EXPECT_LT(p->tsLevel(), start) << "continuous CPU use must demote";
}

TEST_F(Fixture, ShortBurstsCannotDodgeDemotion) {
  // 10ms bursts never individually exceed any quantum, but their sum does.
  auto p = host.spawn("sneaky", [](Process& q) { spinLoop(q); });
  s.runUntil(sim::sec(5));
  EXPECT_EQ(p->tsLevel(), 0) << "cumulative accounting must reach the floor";
}

TEST_F(Fixture, SleepingWorkKeepsHighLevel) {
  auto p = host.spawn("inter", [](Process& q) { interactiveLoop(q); });
  s.runUntil(sim::sec(5));
  EXPECT_GE(p->tsLevel(), 39) << "slpret must keep interactive work high";
}

TEST_F(Fixture, InteractiveBeatsBatchUnderContention) {
  auto batch = host.spawn("batch", [](Process& q) { spinLoop(q); });
  auto inter = host.spawn("inter", [](Process& q) { interactiveLoop(q); });
  s.runUntil(sim::sec(10));
  // Interactive demand is 50%; it should get nearly all of it.
  EXPECT_GT(sim::toSeconds(inter->cpuTime()), 4.0);
  EXPECT_GT(sim::toSeconds(batch->cpuTime()), 3.0);  // batch gets the rest
}

// ---- Starvation aging ----

TEST_F(Fixture, AgingGivesStarvedBatchWorkCpu) {
  // A near-100%-demand process that sleeps 1ms every 25ms stays interactive;
  // aging must still leak CPU to the spinner.
  auto hogP = host.spawn("hog", [](Process& q) {
    struct {
      void operator()(Process& p) const {
        if (p.terminated()) return;
        auto self = *this;
        p.compute(sim::msec(25), [&p, self] {
          p.sleepFor(sim::msec(1), [&p, self] { self(p); });
        });
      }
    } loop;
    loop(q);
  });
  auto spinP = host.spawn("spin", [](Process& q) { spinLoop(q); });
  s.runUntil(sim::sec(30));
  EXPECT_GT(sim::toSeconds(spinP->cpuTime()), 0.5)
      << "aging must prevent indefinite starvation";
  EXPECT_GT(hogP->cpuTime(), spinP->cpuTime());
}

// ---- RT grants ("units of real-time CPU cycles") ----

TEST_F(Fixture, RtGrantGivesApproximatelyTheGrantedShare) {
  auto fav = host.spawn("fav", [](Process& q) { spinLoop(q); });
  auto other = host.spawn("other", [](Process& q) { spinLoop(q); });
  RtGrant g;
  g.sharePercent = 60;
  fav->setRtGrant(g);
  s.runUntil(sim::sec(10));
  const double favShare = sim::toSeconds(fav->cpuTime()) / 10.0;
  // 60% RT plus its TS share of the remainder (~20%).
  EXPECT_GT(favShare, 0.65);
  EXPECT_LT(favShare, 0.95);
  host.shutdown();  // cancels the RT refresh event so the queue can drain
}

TEST_F(Fixture, RtGrantRemovalRestoresFairness) {
  auto a = host.spawn("a", [](Process& q) { spinLoop(q); });
  auto b = host.spawn("b", [](Process& q) { spinLoop(q); });
  RtGrant g;
  g.sharePercent = 80;
  a->setRtGrant(g);
  s.runUntil(sim::sec(5));
  a->setRtGrant(RtGrant{});
  const auto aBefore = a->cpuTime();
  const auto bBefore = b->cpuTime();
  s.runUntil(sim::sec(15));
  const double aDelta = sim::toSeconds(a->cpuTime() - aBefore);
  const double bDelta = sim::toSeconds(b->cpuTime() - bBefore);
  EXPECT_NEAR(aDelta, bDelta, 2.0);
}

TEST_F(Fixture, RtGrantBudgetCapsShare) {
  auto fav = host.spawn("fav", [](Process& q) { spinLoop(q); });
  auto other = host.spawn("other", [](Process& q) { spinLoop(q); });
  RtGrant g;
  g.sharePercent = 30;
  fav->setRtGrant(g);
  s.runUntil(sim::sec(10));
  // 30% RT + ~35% of the remaining TS time.
  const double favShare = sim::toSeconds(fav->cpuTime()) / 10.0;
  EXPECT_LT(favShare, 0.80);
  EXPECT_GT(sim::toSeconds(other->cpuTime()), 2.0);
  host.shutdown();
}

TEST_F(Fixture, InvalidRtGrantPeriodThrows) {
  auto p = host.spawn("p", [](Process&) {});
  RtGrant g;
  g.sharePercent = 50;
  g.period = 0;
  EXPECT_THROW(p->setRtGrant(g), std::invalid_argument);
}

// ---- CPU bookkeeping ----

TEST_F(Fixture, UtilizationReflectsBusyFraction) {
  host.spawn("p", [](Process& q) {
    q.compute(sim::sec(2), [&q] { q.exitProcess(); });
  });
  s.runUntil(sim::sec(4));
  EXPECT_NEAR(host.cpu().utilization(), 0.5, 0.05);
}

TEST_F(Fixture, ContextSwitchesAreCounted) {
  host.spawn("a", [](Process& q) { spinLoop(q); });
  host.spawn("b", [](Process& q) { spinLoop(q); });
  s.runUntil(sim::sec(2));
  EXPECT_GT(host.cpu().contextSwitches(), 10u);
}

TEST_F(Fixture, LoadAverageTracksRunnableCount) {
  for (int i = 0; i < 4; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    host.spawn(name, [](Process& q) { spinLoop(q); });
  }
  s.runUntil(sim::sec(240));  // 4 minutes ≈ converged 1-min EWMA
  EXPECT_NEAR(host.loadAverage(), 4.0, 0.4);
}

TEST_F(Fixture, LoadAveragePrimeSeedsValue) {
  host.loadSampler().prime(7.5);
  EXPECT_DOUBLE_EQ(host.loadAverage(), 7.5);
}

}  // namespace
}  // namespace softqos::osim
