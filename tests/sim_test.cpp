// Tests for the discrete-event kernel: event queue ordering/cancellation,
// simulation clock semantics, random streams, metrics and tracing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/csv.hpp"
#include "sim/simulation.hpp"

namespace softqos::sim {
namespace {

// ---- EventQueue ----

TEST(EventQueue, FiresInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.at(usec(30), [&] { order.push_back(3); });
  s.at(usec(10), [&] { order.push_back(1); });
  s.at(usec(20), [&] { order.push_back(2); });
  s.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.at(usec(5), [&order, i] { order.push_back(i); });
  }
  s.runAll();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  Simulation s;
  bool fired = false;
  const EventId id = s.at(usec(10), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.runAll();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelReturnsFalseForFiredEvent) {
  Simulation s;
  const EventId id = s.at(usec(10), [] {});
  s.runAll();
  EXPECT_FALSE(s.cancel(id));
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  Simulation s;
  const EventId id = s.at(usec(10), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  s.runAll();
}

TEST(EventQueue, CancelOfInvalidIdIsSafe) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEvent));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(5, [] {});
  q.cancel(a);
  EXPECT_EQ(q.nextTime(), 5);
}

TEST(EventQueue, IsPendingLifecycle) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  EXPECT_TRUE(q.isPending(a));
  q.pop();
  EXPECT_FALSE(q.isPending(a));
}

TEST(EventQueue, StaleIdAfterCancelDoesNotTouchReusedSlot) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  ASSERT_TRUE(q.cancel(a));
  // The freed slot is recycled for b; the stale handle must not resolve.
  const EventId b = q.schedule(2, [] {});
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));
  EXPECT_FALSE(q.isPending(a));
  EXPECT_TRUE(q.isPending(b));
  EXPECT_TRUE(q.cancel(b));
}

TEST(EventQueue, StaleIdAfterFireDoesNotTouchReusedSlot) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.pop();
  const EventId b = q.schedule(2, [] {});
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.isPending(b));
}

TEST(EventQueue, SlotsAreReusedInsteadOfGrowingTheArena) {
  EventQueue q;
  for (int round = 0; round < 1000; ++round) {
    q.cancel(q.schedule(round + 1, [] {}));
  }
  EXPECT_LE(q.slotCapacity(), 4u);
}

// Seeded schedule/cancel/reschedule/every/fire sequences against a
// std::set<(when, seq)> model of the ready order. Firing callbacks also
// schedule ties, cancel themselves and re-time themselves, and stale
// handles are cancelled and rescheduled throughout.
TEST(EventQueue, MatchesAnOrderedSetModel) {
  struct Live {
    SimTime when = 0;
    std::uint64_t seq = 0;
    SimDuration period = 0;  // 0 = one-shot
  };
  EventQueue q;
  std::set<std::pair<SimTime, std::uint64_t>> order;  // queued (when, seq)
  std::map<std::uint64_t, EventId> idBySeq;
  std::map<EventId, Live> live;
  std::vector<EventId> issued;  // every id handed out, stale ones included
  std::uint64_t seq = 0;
  SimTime now = 0;
  std::mt19937_64 rng(20261018);
  auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  auto arm = [&](EventId id, SimTime when) {
    Live& e = live[id];
    e.when = when;
    e.seq = ++seq;
    order.emplace(when, e.seq);
    idBySeq[e.seq] = id;
  };
  auto disarm = [&](EventId id) {
    const Live& e = live.at(id);
    order.erase({e.when, e.seq});
    idBySeq.erase(e.seq);
  };
  auto recentId = [&] {
    const auto window = static_cast<std::int64_t>(std::min<std::size_t>(
        issued.size(), 48));
    return issued[issued.size() - 1 -
                  static_cast<std::size_t>(draw(0, window - 1))];
  };
  std::function<void()> inside = [] {};
  auto scheduleOneShot = [&](SimTime when) {
    const EventId id = q.schedule(when, [&inside] { inside(); });
    live[id].period = 0;
    arm(id, when);
    issued.push_back(id);
  };

  std::uint64_t fires = 0;
  std::size_t peakLive = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::int64_t op = draw(0, 9);
    if (op <= 2) {
      scheduleOneShot(now + draw(0, 50));
    } else if (op == 3) {
      const SimDuration period = draw(1, 40);
      const EventId id =
          q.schedulePeriodic(now + period, period, [&inside] { inside(); });
      live[id].period = period;
      arm(id, now + period);
      issued.push_back(id);
    } else if (op == 4 && !issued.empty()) {
      const EventId id = recentId();
      const bool expected = live.contains(id);
      ASSERT_EQ(q.cancel(id), expected);
      if (expected) {
        disarm(id);
        live.erase(id);
      }
    } else if (op == 5 && !issued.empty()) {
      const EventId id = recentId();
      const SimDuration period = draw(1, 40);
      const auto it = live.find(id);
      const bool expected = it != live.end() && it->second.period > 0;
      ASSERT_EQ(q.reschedulePeriodic(id, now, period), expected);
      if (expected) {
        disarm(id);
        it->second.period = period;
        arm(id, now + period);
      }
    } else if (!q.empty()) {
      ASSERT_FALSE(order.empty());
      const auto [when, firstSeq] = *order.begin();
      const EventId expectedId = idBySeq.at(firstSeq);
      const EventQueue::Firing f = q.beginFire();
      ASSERT_EQ(f.when, when);
      ASSERT_EQ(f.id, expectedId);
      now = f.when;
      disarm(expectedId);
      const bool periodic = live.at(expectedId).period > 0;
      if (!periodic) live.erase(expectedId);
      ASSERT_EQ(q.isPending(f.id), periodic);
      ASSERT_EQ(q.size(), live.size());
      const std::int64_t action = draw(0, 5);
      inside = [&, action, periodic, id = f.id] {
        if (action == 0) {
          scheduleOneShot(now + draw(0, 3));  // ties with the re-arm
        } else if (action == 1) {
          EXPECT_EQ(q.cancel(id), periodic);
          if (periodic) live.erase(id);
        } else if (action == 2) {
          const SimDuration period = draw(1, 40);
          EXPECT_EQ(q.reschedulePeriodic(id, now, period), periodic);
          if (periodic) live.at(id).period = period;
        }
      };
      f.cb();
      q.finishFire(f);
      inside = [] {};
      ++fires;
      const auto it = live.find(expectedId);
      if (it != live.end()) arm(expectedId, when + it->second.period);
    }
    ASSERT_EQ(q.size(), live.size());
    ASSERT_EQ(q.empty(), live.empty());
    if (!order.empty()) {
      ASSERT_EQ(q.nextTime(), order.begin()->first);
    }
    peakLive = std::max(peakLive, live.size());
  }
  EXPECT_GT(fires, 2000u);
  // Slots are recycled: at most one beyond the live peak (a firing
  // one-shot holds its slot until finishFire).
  EXPECT_LE(q.slotCapacity(), peakLive + 1);
}

// ---- Simulation ----

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation s;
  SimTime seen = -1;
  s.after(msec(5), [&] { seen = s.now(); });
  s.runAll();
  EXPECT_EQ(seen, msec(5));
  EXPECT_EQ(s.now(), msec(5));
}

TEST(Simulation, RunUntilExecutesInclusiveBoundary) {
  Simulation s;
  int fired = 0;
  s.at(msec(10), [&] { ++fired; });
  s.at(msec(11), [&] { ++fired; });
  s.runUntil(msec(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), msec(10));
  s.runAll();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunUntilAdvancesClockWhenIdle) {
  Simulation s;
  s.runUntil(sec(3));
  EXPECT_EQ(s.now(), sec(3));
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.after(usec(1), chain);
  };
  s.after(usec(1), chain);
  s.runAll();
  EXPECT_EQ(depth, 5);
}

TEST(Simulation, NegativeDelayThrows) {
  Simulation s;
  EXPECT_THROW(s.after(-1, [] {}), std::invalid_argument);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation s;
  s.after(msec(5), [] {});
  s.runAll();
  EXPECT_THROW(s.at(msec(1), [] {}), std::invalid_argument);
}

TEST(Simulation, StepExecutesExactlyOne) {
  Simulation s;
  int fired = 0;
  s.after(1, [&] { ++fired; });
  s.after(2, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulation, ZeroDelayEventFiresAtCurrentTime) {
  Simulation s;
  s.after(msec(1), [&] {
    s.after(0, [&] { EXPECT_EQ(s.now(), msec(1)); });
  });
  s.runAll();
}

// ---- Periodic events ----

TEST(Simulation, EveryFiresAtFixedPeriod) {
  Simulation s;
  std::vector<SimTime> fires;
  const EventId id = s.every(msec(10), [&] { fires.push_back(s.now()); });
  s.runUntil(msec(35));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(fires, (std::vector<SimTime>{msec(10), msec(20), msec(30)}));
}

TEST(Simulation, EveryRejectsNonPositivePeriod) {
  Simulation s;
  EXPECT_THROW(s.every(0, [] {}), std::invalid_argument);
  EXPECT_THROW(s.every(-msec(1), [] {}), std::invalid_argument);
}

TEST(Simulation, EveryCallbackCanCancelItself) {
  Simulation s;
  int fired = 0;
  EventId id = kInvalidEvent;
  id = s.every(msec(1), [&] {
    if (++fired == 3) s.cancel(id);
  });
  s.runAll();
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(s.cancel(id));  // already dead
}

TEST(Simulation, CancelBetweenOccurrencesStopsPeriodic) {
  Simulation s;
  int fired = 0;
  const EventId id = s.every(msec(10), [&] { ++fired; });
  s.after(msec(25), [&] { EXPECT_TRUE(s.cancel(id)); });
  s.runAll();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RescheduleInsideOwnCallbackRetimesNextFire) {
  // The random-gap pacing idiom (traffic sources, Poisson arrivals): each
  // occurrence re-times the next one from inside the firing callback.
  Simulation s;
  std::vector<SimTime> fires;
  EventId id = kInvalidEvent;
  id = s.every(msec(10), [&] {
    fires.push_back(s.now());
    s.reschedule(id, msec(3));
  });
  s.runUntil(msec(17));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(fires, (std::vector<SimTime>{msec(10), msec(13), msec(16)}));
}

TEST(Simulation, RescheduleQueuedPeriodicMovesNextFire) {
  Simulation s;
  std::vector<SimTime> fires;
  const EventId id = s.every(msec(10), [&] { fires.push_back(s.now()); });
  s.after(msec(4), [&] { EXPECT_TRUE(s.reschedule(id, msec(2))); });
  s.runUntil(msec(8));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(fires, (std::vector<SimTime>{msec(6), msec(8)}));
}

TEST(Simulation, RescheduleDeadEventReturnsFalse) {
  Simulation s;
  const EventId id = s.every(msec(1), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.reschedule(id, msec(5)));
}

TEST(Simulation, PeriodicReArmLosesTiesToCallbackScheduledWork) {
  // The re-arm happens after the callback returns, so events the callback
  // schedules for the same future timestamp fire first — matching the old
  // reschedule-at-end-of-callback idiom bit for bit.
  Simulation s;
  std::vector<int> order;
  const EventId id = s.every(msec(10), [&] {
    order.push_back(1);
    s.after(msec(10), [&] { order.push_back(2); });
  });
  s.runUntil(msec(20));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1}));
}

// ---- In-place fire ----

TEST(Simulation, ThrowingCallbackReleasesItsSlot) {
  Simulation s;
  s.at(usec(1), [] { throw std::runtime_error("callback failed"); });
  const EventId later = s.at(usec(2), [] {});
  EXPECT_THROW(s.runAll(), std::runtime_error);
  EXPECT_EQ(s.queue().size(), 1u);
  EXPECT_FALSE(s.queue().empty());
  EXPECT_TRUE(s.queue().isPending(later));
  // The thrown event's slot is back on the free list: the next event reuses
  // it instead of growing the arena.
  const std::size_t slots = s.queue().slotCapacity();
  s.at(usec(3), [] {});
  EXPECT_EQ(s.queue().slotCapacity(), slots);
  EXPECT_EQ(s.runAll(), 2u);
  EXPECT_TRUE(s.queue().empty());
}

TEST(Simulation, ThrowingPeriodicCallbackStaysArmed) {
  Simulation s;
  int fired = 0;
  const EventId id = s.every(msec(1), [&] {
    if (++fired == 2) throw std::runtime_error("second tick failed");
  });
  EXPECT_THROW(s.runUntil(msec(5)), std::runtime_error);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(s.queue().isPending(id));
  EXPECT_EQ(s.queue().size(), 1u);
  s.runUntil(msec(4));
  EXPECT_EQ(fired, 4);
  EXPECT_TRUE(s.cancel(id));
  EXPECT_TRUE(s.queue().empty());
}

TEST(Simulation, OneShotCannotCancelOrRescheduleItselfWhileFiring) {
  Simulation s;
  EventId id = kInvalidEvent;
  bool pending = true;
  bool cancelled = true;
  bool rescheduled = true;
  std::size_t sizeInside = 0;
  id = s.at(usec(5), [&] {
    pending = s.queue().isPending(id);
    sizeInside = s.queue().size();
    cancelled = s.cancel(id);
    rescheduled = s.reschedule(id, usec(1));
  });
  s.at(usec(9), [] {});
  EXPECT_EQ(s.runAll(), 2u);
  EXPECT_FALSE(pending);
  EXPECT_EQ(sizeInside, 1u);  // only the other event counts while it fires
  EXPECT_FALSE(cancelled);
  EXPECT_FALSE(rescheduled);
  EXPECT_TRUE(s.queue().empty());
}

TEST(Simulation, CallbackRunsInPlaceWhileItsSchedulingGrowsTheArena) {
  // The running closure stays where it is while it schedules far more
  // events than one arena chunk holds; a slot that moved would leave the
  // captured string moved-from and freed (caught under ASan). The capture
  // is a non-const string, so the closure is nothrow-movable and lives
  // inline in its slot rather than in a heap node of its own.
  Simulation s;
  const std::string expected(200, 'p');
  std::string before;
  std::string after;
  int fired = 0;
  s.at(usec(1), [&, payload = expected] {
    before = payload;
    for (int i = 0; i < 1000; ++i) s.after(usec(1 + i), [&fired] { ++fired; });
    after = payload;
  });
  EXPECT_EQ(s.runAll(), 1001u);
  EXPECT_EQ(before, expected);
  EXPECT_EQ(after, expected);
  EXPECT_EQ(fired, 1000);
  EXPECT_GE(s.queue().slotCapacity(), 1001u);
}

// A span observer that only counts the kernel's per-event profiling hook
// (the contract a profiling observer relies on).
struct EventCountingObserver final : SpanObserver {
  TraceContext beginTrace(SimTime, std::string_view, std::string_view) override {
    return {};
  }
  TraceContext beginSpan(SimTime, const TraceContext&, std::string_view,
                         std::string_view) override {
    return {};
  }
  void endSpan(SimTime, const TraceContext&) override {}
  void annotate(const TraceContext&, std::string_view,
                std::string_view) override {}
  TraceContext instant(SimTime, const TraceContext&, std::string_view,
                       std::string_view) override {
    return {};
  }
  void onEventExecuted(SimTime now, std::size_t depth,
                       std::uint64_t /*wallNanos*/) override {
    times.push_back(now);
    depths.push_back(depth);
  }

  std::vector<SimTime> times;
  std::vector<std::size_t> depths;
};

TEST(Simulation, ObserverSeesEveryExecutedEventOnTheSerialKernel) {
  Simulation s;
  EventCountingObserver counter;
  s.setObserver(&counter);
  for (int i = 0; i < 10; ++i) s.after(msec(i + 1), [] {});
  s.runAll();
  ASSERT_EQ(counter.times.size(), 10u);
  EXPECT_EQ(counter.times.front(), msec(1));
  EXPECT_EQ(counter.times.back(), msec(10));
  EXPECT_EQ(counter.depths.front(), 9u);  // events still queued at dispatch
  EXPECT_EQ(counter.depths.back(), 0u);

  s.setObserver(nullptr);
  s.after(msec(1), [] {});
  s.runAll();
  EXPECT_EQ(counter.times.size(), 10u);  // detached: no more calls
}

// ---- RandomStream ----

TEST(RandomStream, SameSeedSameNameIsDeterministic) {
  RandomStream a(42, "x");
  RandomStream b(42, "x");
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(RandomStream, DifferentNamesDecorrelate) {
  RandomStream a(42, "x");
  RandomStream b(42, "y");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RandomStream, Uniform01StaysInRange) {
  RandomStream r(1, "u");
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomStream, UniformIntCoversInclusiveRange) {
  RandomStream r(1, "i");
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    sawLo |= v == 1;
    sawHi |= v == 4;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(RandomStream, ExponentialMeanIsApproximatelyRight) {
  RandomStream r(7, "e");
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RandomStream, ExpGapIsAtLeastOneTick) {
  RandomStream r(7, "g");
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.expGap(2), 1);
}

TEST(RandomStream, ChanceExtremes) {
  RandomStream r(7, "c");
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

// ---- Metrics ----

TEST(Summary, WelfordMatchesKnownValues) {
  Summary s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptySummaryIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(TimeSeries, SummaryFromSkipsWarmup) {
  TimeSeries ts;
  ts.record(sec(1), 100.0);
  ts.record(sec(2), 10.0);
  ts.record(sec(3), 20.0);
  EXPECT_DOUBLE_EQ(ts.summaryFrom(sec(2)).mean(), 15.0);
}

TEST(TimeSeries, MeanInWindowIsHalfOpen) {
  TimeSeries ts;
  ts.record(sec(1), 1.0);
  ts.record(sec(2), 2.0);
  ts.record(sec(3), 3.0);
  EXPECT_DOUBLE_EQ(ts.meanInWindow(sec(1), sec(3)), 1.5);
}

TEST(TimeSeries, MeanInWindowBoundaries) {
  TimeSeries ts;
  ts.record(sec(1), 1.0);
  ts.record(sec(2), 2.0);
  // Empty and inverted windows contain no samples and report a zero mean.
  EXPECT_DOUBLE_EQ(ts.meanInWindow(sec(2), sec(2)), 0.0);
  EXPECT_DOUBLE_EQ(ts.meanInWindow(sec(3), sec(1)), 0.0);
  // A window grazing exactly one sample includes the closed lower bound.
  EXPECT_DOUBLE_EQ(ts.meanInWindow(sec(2), sec(2) + 1), 2.0);
  // ... and excludes the open upper bound.
  EXPECT_DOUBLE_EQ(ts.meanInWindow(sec(1), sec(2)), 1.0);
}

TEST(TimeSeries, SummaryFromPastEndIsEmpty) {
  TimeSeries ts;
  ts.record(sec(1), 100.0);
  ts.record(sec(2), 10.0);
  const Summary s = ts.summaryFrom(sec(3));
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

// ---- Histogram ----

TEST(Histogram, EmptyReportsZeroes) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(Histogram, SingleBucketReportsExactValue) {
  // All samples in one bucket: min == max clamps every quantile to the
  // exact observed value despite the log-bucket resolution.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.add(42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.p50(), 42.0);
  EXPECT_DOUBLE_EQ(h.p99(), 42.0);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(Histogram, PercentileWithinBucketResolution) {
  // 100 samples 1..100: buckets grow by 2^(1/4) ≈ 19%, so a quantile is
  // within ±10% of the exact order statistic.
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.p50(), 50.0, 5.0);
  EXPECT_NEAR(h.p90(), 90.0, 9.0);
  EXPECT_NEAR(h.p99(), 99.0, 10.0);
  // Extremes land in the min/max buckets (within one bucket's resolution)
  // and never escape the observed range.
  EXPECT_NEAR(h.percentile(100.0), 100.0, 10.0);
  EXPECT_NEAR(h.percentile(0.0), 1.0, 0.2);
  EXPECT_LE(h.percentile(100.0), h.max());
  EXPECT_GE(h.percentile(0.0), h.min());
}

TEST(Histogram, NegativeAndSubUnitSamplesClampToBucketZero) {
  Histogram h;
  h.add(-5.0);
  h.add(0.25);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  ASSERT_FALSE(h.buckets().empty());
  EXPECT_EQ(h.buckets()[0], 2u);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram a;
  Histogram b;
  Histogram combined;
  for (int i = 1; i <= 50; ++i) {
    a.add(static_cast<double>(i));
    combined.add(static_cast<double>(i));
  }
  for (int i = 1000; i <= 1049; ++i) {
    b.add(static_cast<double>(i));
    combined.add(static_cast<double>(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  EXPECT_EQ(a.buckets(), combined.buckets());
  EXPECT_DOUBLE_EQ(a.p50(), combined.p50());
  EXPECT_DOUBLE_EQ(a.p99(), combined.p99());
}

TEST(Histogram, MergeIntoEmptyAndFromEmpty) {
  Histogram empty;
  Histogram filled;
  filled.add(7.0);
  // Merging an empty histogram is a no-op (min/max must not become 0).
  filled.merge(Histogram());
  EXPECT_EQ(filled.count(), 1u);
  EXPECT_DOUBLE_EQ(filled.min(), 7.0);
  // Merging into an empty histogram adopts the source's extremes.
  empty.merge(filled);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.min(), 7.0);
  EXPECT_DOUBLE_EQ(empty.max(), 7.0);
}

TEST(Histogram, BucketBoundsGrowMonotonically) {
  EXPECT_DOUBLE_EQ(Histogram::bucketLowerBound(0), 0.0);
  EXPECT_DOUBLE_EQ(Histogram::bucketLowerBound(1), 1.0);
  for (std::size_t i = 1; i < 40; ++i) {
    EXPECT_LT(Histogram::bucketLowerBound(i), Histogram::bucketLowerBound(i + 1));
  }
}

TEST(MetricRegistry, CountersAndSeries) {
  MetricRegistry m;
  m.count("a");
  m.count("a", 4);
  EXPECT_EQ(m.counter("a"), 5);
  EXPECT_EQ(m.counter("missing"), 0);
  m.sample("s", sec(1), 2.5);
  ASSERT_NE(m.series("s"), nullptr);
  EXPECT_EQ(m.series("s")->samples().size(), 1u);
  EXPECT_EQ(m.series("missing"), nullptr);
  m.clear();
  EXPECT_EQ(m.counter("a"), 0);
}

TEST(MetricRegistry, HistogramObserveAndLookup) {
  MetricRegistry m;
  m.observe("lat", 10.0);
  m.observe("lat", 20.0);
  ASSERT_NE(m.histogram("lat"), nullptr);
  EXPECT_EQ(m.histogram("lat")->count(), 2u);
  EXPECT_EQ(m.histogram("missing"), nullptr);
  EXPECT_EQ(m.allHistograms().size(), 1u);
}

// Regression: handles interned before clear() must become no-ops, not
// dangle into the freed map nodes (previously a use-after-free).
TEST(MetricRegistry, ClearInvalidatesInternedHandles) {
  MetricRegistry m;
  Counter c = m.counterHandle("c");
  Series s = m.seriesHandle("s");
  HistogramHandle h = m.histogramHandle("h");
  c.add(3);
  s.record(sec(1), 1.0);
  h.record(5.0);
  EXPECT_EQ(c.value(), 3);
  ASSERT_TRUE(h);
  EXPECT_EQ(h.get()->count(), 1u);

  m.clear();

  // Stale handles read as empty and drop writes silently.
  EXPECT_FALSE(c);
  EXPECT_FALSE(s);
  EXPECT_FALSE(h);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(s.get(), nullptr);
  EXPECT_EQ(h.get(), nullptr);
  c.add(7);
  s.record(sec(2), 2.0);
  h.record(9.0);
  EXPECT_EQ(m.counter("c"), 0);
  EXPECT_EQ(m.series("s"), nullptr);
  EXPECT_EQ(m.histogram("h"), nullptr);

  // Re-interned handles bind to the new generation and work again.
  Counter c2 = m.counterHandle("c");
  c2.add(1);
  EXPECT_EQ(m.counter("c"), 1);
  EXPECT_FALSE(c);  // the old handle stays dead across re-creation
}

TEST(MetricRegistry, DefaultConstructedHandlesNoOp) {
  Counter c;
  Series s;
  HistogramHandle h;
  c.add(5);
  s.record(sec(1), 1.0);
  h.record(2.0);
  EXPECT_FALSE(c);
  EXPECT_FALSE(s);
  EXPECT_FALSE(h);
  EXPECT_EQ(c.value(), 0);
}

// ---- CSV export ----

TEST(Csv, FieldQuoting) {
  EXPECT_EQ(csvField("plain"), "plain");
  EXPECT_EQ(csvField("a,b"), "\"a,b\"");
  EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, SingleSeries) {
  TimeSeries ts;
  ts.record(sec(1), 30.0);
  ts.record(sec(2), 15.5);
  EXPECT_EQ(toCsv(ts, "fps"), "time_s,fps\n1,30\n2,15.5\n");
}

TEST(Csv, RegistryLongFormat) {
  MetricRegistry m;
  m.sample("a", sec(1), 1.0);
  m.sample("b", sec(2), 2.0);
  const std::string csv = seriesCsv(m);
  EXPECT_NE(csv.find("series,time_s,value\n"), std::string::npos);
  EXPECT_NE(csv.find("a,1,1\n"), std::string::npos);
  EXPECT_NE(csv.find("b,2,2\n"), std::string::npos);
}

TEST(Csv, Counters) {
  MetricRegistry m;
  m.count("boosts", 7);
  EXPECT_EQ(countersCsv(m), "counter,value\nboosts,7\n");
}

// ---- Trace ----

TEST(Trace, LevelFiltering) {
  Trace t;
  t.setLevel(TraceLevel::kWarn);
  t.log(0, TraceLevel::kInfo, "c", "dropped");
  t.log(0, TraceLevel::kWarn, "c", "kept");
  t.log(0, TraceLevel::kError, "c", "kept too");
  EXPECT_EQ(t.records().size(), 2u);
}

TEST(Trace, OffDropsEverything) {
  Trace t;  // default level kOff
  t.log(0, TraceLevel::kError, "c", "x");
  EXPECT_TRUE(t.records().empty());
}

TEST(Trace, CountContaining) {
  Trace t;
  t.setLevel(TraceLevel::kDebug);
  t.log(0, TraceLevel::kInfo, "a", "boost pid 3");
  t.log(0, TraceLevel::kInfo, "a", "boost pid 4");
  t.log(0, TraceLevel::kInfo, "a", "decay pid 3");
  EXPECT_EQ(t.countContaining("boost"), 2u);
}

TEST(Trace, RingCapDropsOldestFirst) {
  Trace t;
  t.setLevel(TraceLevel::kDebug);
  t.setMaxRecords(3);
  for (int i = 0; i < 5; ++i) {
    std::string message = "m";
    message += std::to_string(i);
    t.log(sec(i), TraceLevel::kInfo, "c", std::move(message));
  }
  ASSERT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.records().front().message, "m2");
  EXPECT_EQ(t.records().back().message, "m4");
  EXPECT_EQ(t.droppedRecords(), 2u);
}

TEST(Trace, SettingCapTrimsExistingRecords) {
  Trace t;
  t.setLevel(TraceLevel::kDebug);
  for (int i = 0; i < 6; ++i) t.log(0, TraceLevel::kInfo, "c", "x");
  t.setMaxRecords(2);
  EXPECT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.droppedRecords(), 4u);
  // 0 restores unbounded retention (nothing further is dropped).
  t.setMaxRecords(0);
  for (int i = 0; i < 10; ++i) t.log(0, TraceLevel::kInfo, "c", "y");
  EXPECT_EQ(t.records().size(), 12u);
  EXPECT_EQ(t.droppedRecords(), 4u);
}

TEST(Simulation, TraceHelpersStampSimTime) {
  Simulation s;
  s.trace().setLevel(TraceLevel::kDebug);
  s.after(msec(7), [&] { s.info("comp", "hello"); });
  s.runAll();
  ASSERT_EQ(s.trace().records().size(), 1u);
  EXPECT_EQ(s.trace().records()[0].time, msec(7));
  EXPECT_EQ(s.trace().records()[0].component, "comp");
}

TEST(Simulation, NamedStreamsDeriveFromSeed) {
  Simulation a(5);
  Simulation b(5);
  RandomStream ra = a.stream("n");
  RandomStream rb = b.stream("n");
  EXPECT_DOUBLE_EQ(ra.uniform01(), rb.uniform01());
}

}  // namespace
}  // namespace softqos::sim
