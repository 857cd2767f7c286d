// Instrumentation layer: sensors (character-form interface, thresholds,
// transitions, ticks), concrete sensors, actuators, the registry, report
// wire format, and the coordinator's Example 3/4 semantics.
#include <gtest/gtest.h>

#include <memory>

#include "instrument/coordinator.hpp"
#include "instrument/sensors.hpp"
#include "osim/host.hpp"
#include "policy/parser.hpp"

namespace softqos::instrument {
namespace {

struct Fixture : ::testing::Test {
  sim::Simulation s{1};
};

// ---- Sensor base behaviour ----

TEST_F(Fixture, CharacterFormInitAndRead) {
  GaugeSensor g(s, "g", "attr");
  g.init("25.5", ">=", 7);  // threshold as string + comparator + internal id
  EXPECT_EQ(g.comparisonCount(), 1u);
  g.set(30.0);
  EXPECT_EQ(g.read(), "30");  // read() returns character form
}

TEST_F(Fixture, AlarmOnViolationClearOnRecovery) {
  GaugeSensor g(s, "g", "attr");
  std::vector<std::pair<int, bool>> events;
  g.setAlarmHandler([&](Sensor&, int id, bool holds) {
    events.emplace_back(id, holds);
  });
  g.installComparison(policy::PolicyCmp::kLt, 10.0, 1);
  g.set(5.0);   // holds; initial state is optimistic-holds, so no event
  g.set(15.0);  // violated -> alarm
  g.set(15.5);  // still violated -> no new event (transition reporting)
  g.set(3.0);   // holds again -> clear
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], std::make_pair(1, false));
  EXPECT_EQ(events[1], std::make_pair(1, true));
  EXPECT_EQ(g.alarmsRaised(), 1u);
  EXPECT_EQ(g.clearsRaised(), 1u);
}

TEST_F(Fixture, MultipleComparisonsReportIndependently) {
  GaugeSensor g(s, "g", "attr");
  std::vector<int> alarms;
  g.setAlarmHandler([&](Sensor&, int id, bool holds) {
    if (!holds) alarms.push_back(id);
  });
  g.installComparison(policy::PolicyCmp::kGt, 23.0, 1);
  g.installComparison(policy::PolicyCmp::kLt, 27.0, 2);
  g.set(25.0);
  EXPECT_TRUE(alarms.empty());
  g.set(30.0);  // violates the upper comparison only
  EXPECT_EQ(alarms, (std::vector<int>{2}));
  g.set(20.0);  // violates the lower; upper clears
  EXPECT_EQ(alarms, (std::vector<int>{2, 1}));
}

TEST_F(Fixture, DisabledSensorIgnoresObservations) {
  GaugeSensor g(s, "g", "attr");
  int events = 0;
  g.setAlarmHandler([&](Sensor&, int, bool) { ++events; });
  g.installComparison(policy::PolicyCmp::kLt, 10.0, 1);
  g.setEnabled(false);
  g.set(50.0);
  EXPECT_EQ(events, 0);
  EXPECT_EQ(g.observations(), 0u);
  g.setEnabled(true);
  g.set(50.0);
  EXPECT_EQ(events, 1);
}

TEST_F(Fixture, ThresholdChangeAtRuntimeReevaluates) {
  GaugeSensor g(s, "g", "attr");
  std::vector<bool> states;
  g.setAlarmHandler([&](Sensor&, int, bool holds) { states.push_back(holds); });
  g.installComparison(policy::PolicyCmp::kLt, 10.0, 1);
  g.set(15.0);  // alarm
  EXPECT_TRUE(g.updateThreshold(1, 20.0));  // now 15 < 20 holds -> clear
  ASSERT_EQ(states.size(), 2u);
  EXPECT_FALSE(states[0]);
  EXPECT_TRUE(states[1]);
  EXPECT_FALSE(g.updateThreshold(99, 1.0));
}

TEST_F(Fixture, RemoveComparisonStopsReports) {
  GaugeSensor g(s, "g", "attr");
  int events = 0;
  g.setAlarmHandler([&](Sensor&, int, bool) { ++events; });
  g.installComparison(policy::PolicyCmp::kLt, 10.0, 1);
  EXPECT_TRUE(g.removeComparison(1));
  EXPECT_FALSE(g.removeComparison(1));
  g.set(50.0);
  EXPECT_EQ(events, 0);
}

TEST_F(Fixture, ReinstallingSameIdReplaces) {
  GaugeSensor g(s, "g", "attr");
  g.installComparison(policy::PolicyCmp::kLt, 10.0, 1);
  g.installComparison(policy::PolicyCmp::kGt, 5.0, 1);
  EXPECT_EQ(g.comparisonCount(), 1u);
}

// ---- Threshold hysteresis (assert/retract bands) ----

TEST_F(Fixture, HysteresisHoldsTheClearUntilRecoveryClearsTheBand) {
  GaugeSensor g(s, "g", "attr");
  std::vector<std::pair<int, bool>> events;
  g.setAlarmHandler([&](Sensor&, int id, bool holds) {
    events.emplace_back(id, holds);
  });
  g.installComparison(policy::PolicyCmp::kGe, 25.0, 1);
  EXPECT_TRUE(g.setHysteresis(1, 2.0));
  g.set(30.0);  // holds
  g.set(20.0);  // alarm (the alarm edge is unchanged by the band)
  g.set(25.5);  // above threshold but inside the band: still alarmed
  g.set(26.9);  // still inside
  g.set(27.0);  // reaches threshold + band: clear
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], std::make_pair(1, false));
  EXPECT_EQ(events[1], std::make_pair(1, true));
}

TEST_F(Fixture, HysteresisBandIsBelowForUpperBoundComparators) {
  GaugeSensor g(s, "g", "attr");
  std::vector<bool> states;
  g.setAlarmHandler([&](Sensor&, int, bool holds) { states.push_back(holds); });
  g.installComparison(policy::PolicyCmp::kLt, 10.0, 1);
  EXPECT_TRUE(g.setHysteresis(1, 1.0));
  g.set(5.0);   // holds
  g.set(12.0);  // alarm
  g.set(9.5);   // below threshold but not past the band: still alarmed
  g.set(8.9);   // clear (value < threshold - band)
  ASSERT_EQ(states.size(), 2u);
  EXPECT_FALSE(states[0]);
  EXPECT_TRUE(states[1]);
}

TEST_F(Fixture, HysteresisKillsFlappingAroundTheThreshold) {
  GaugeSensor plain(s, "p", "attr");
  GaugeSensor damped(s, "d", "attr");
  int plainEvents = 0, dampedEvents = 0;
  plain.setAlarmHandler([&](Sensor&, int, bool) { ++plainEvents; });
  damped.setAlarmHandler([&](Sensor&, int, bool) { ++dampedEvents; });
  plain.installComparison(policy::PolicyCmp::kGe, 25.0, 1);
  damped.installComparison(policy::PolicyCmp::kGe, 25.0, 1);
  EXPECT_TRUE(damped.setHysteresis(1, 1.0));
  for (int i = 0; i < 10; ++i) {
    plain.set(24.8);
    damped.set(24.8);
    plain.set(25.2);  // re-arms the plain sensor every cycle
    damped.set(25.2);  // inside the band: the damped sensor stays alarmed
  }
  EXPECT_EQ(plainEvents, 20);
  EXPECT_EQ(dampedEvents, 1);  // one alarm, no clears
  EXPECT_EQ(damped.alarmsRaised(), 1u);
  EXPECT_EQ(damped.clearsRaised(), 0u);
}

TEST_F(Fixture, HysteresisZeroRestoresPlainTransitions) {
  GaugeSensor g(s, "g", "attr");
  std::vector<bool> states;
  g.setAlarmHandler([&](Sensor&, int, bool holds) { states.push_back(holds); });
  g.installComparison(policy::PolicyCmp::kGe, 25.0, 1);
  EXPECT_TRUE(g.setHysteresis(1, 2.0));
  EXPECT_TRUE(g.setHysteresis(1, 0.0));
  g.set(20.0);  // alarm
  g.set(25.5);  // plain clear right at the threshold
  ASSERT_EQ(states.size(), 2u);
  EXPECT_TRUE(states[1]);
}

TEST_F(Fixture, HysteresisIgnoredByEqualityComparators) {
  GaugeSensor g(s, "g", "attr");
  std::vector<bool> states;
  g.setAlarmHandler([&](Sensor&, int, bool holds) { states.push_back(holds); });
  g.installComparison(policy::PolicyCmp::kEq, 5.0, 1);
  EXPECT_TRUE(g.setHysteresis(1, 3.0));
  g.set(5.0);  // holds
  g.set(6.0);  // alarm
  g.set(5.0);  // equality has no meaningful band: clears immediately
  ASSERT_EQ(states.size(), 2u);
  EXPECT_TRUE(states[1]);
}

TEST_F(Fixture, HysteresisUnknownIdRejected) {
  GaugeSensor g(s, "g", "attr");
  EXPECT_FALSE(g.setHysteresis(42, 1.0));
}

// ---- FrameRateSensor (Example 2) ----

TEST_F(Fixture, FrameRateMeasuresWindowedFps) {
  FrameRateSensor f(s, "fps", "frame_rate", sim::sec(1));
  for (int i = 0; i < 120; ++i) {
    s.at(sim::msec(25) * i, [&f] { f.onFrameDisplayed(); });  // 40 fps
  }
  s.runUntil(sim::sec(3));
  EXPECT_NEAR(f.currentValue(), 40.0, 2.0);
}

TEST_F(Fixture, FrameRateSpikeFilterDropsBursts) {
  FrameRateSensor f(s, "fps", "frame_rate", sim::sec(1), sim::msec(2));
  s.at(sim::msec(100), [&f] {
    // A burst of 5 "frames" within 1ms: only the first counts.
    for (int i = 0; i < 5; ++i) f.onFrameDisplayed();
  });
  s.runUntil(sim::msec(200));
  EXPECT_EQ(f.framesCounted(), 1u);
  EXPECT_EQ(f.spikesFiltered(), 4u);
}

TEST_F(Fixture, FrameRateDetectsStallViaTick) {
  FrameRateSensor f(s, "fps", "frame_rate", sim::sec(1));
  bool alarmed = false;
  f.setAlarmHandler([&](Sensor&, int, bool holds) { alarmed = !holds; });
  f.installComparison(policy::PolicyCmp::kGt, 23.0, 1);
  // 30fps for one second, then the stream stops.
  for (int i = 0; i < 30; ++i) {
    s.at(sim::msec(33) * i, [&f] { f.onFrameDisplayed(); });
  }
  s.runUntil(sim::sec(1));
  EXPECT_FALSE(alarmed);
  s.runUntil(sim::sec(3));  // no frames: the periodic tick must notice
  EXPECT_TRUE(alarmed);
  EXPECT_LT(f.currentValue(), 1.0);
}

// ---- JitterSensor ----

TEST_F(Fixture, JitterIsLowForPeriodicStream) {
  JitterSensor j(s, "j", "jitter_rate", sim::msec(33));
  for (int i = 0; i < 60; ++i) {
    s.at(sim::msec(33) * i, [&j] { j.onFrameDisplayed(); });
  }
  s.runUntil(sim::sec(3));
  EXPECT_LT(j.currentValue(), 0.05);
}

TEST_F(Fixture, JitterGrowsForIrregularStream) {
  JitterSensor j(s, "j", "jitter_rate", sim::msec(33));
  sim::SimTime t = 0;
  for (int i = 0; i < 40; ++i) {
    t += (i % 2 == 0) ? sim::msec(5) : sim::msec(120);
    s.at(t, [&j] { j.onFrameDisplayed(); });
  }
  s.runUntil(sim::sec(5));
  EXPECT_GT(j.currentValue(), 1.0);
}

// ---- SourceSensor / buffer sensor (Example 5) ----

TEST_F(Fixture, SourceSensorTracksExternalValue) {
  double value = 1.0;
  SourceSensor src(s, "src", "x", [&value] { return value; });
  EXPECT_DOUBLE_EQ(src.currentValue(), 1.0);
  value = 9.0;
  EXPECT_DOUBLE_EQ(src.currentValue(), 9.0);
}

TEST_F(Fixture, SourceSensorTickEvaluatesComparisons) {
  double value = 1.0;
  SourceSensor src(s, "src", "x", [&value] { return value; });
  bool alarmed = false;
  src.setAlarmHandler([&](Sensor&, int, bool holds) { alarmed = !holds; });
  src.installComparison(policy::PolicyCmp::kLt, 5.0, 1);
  s.runUntil(sim::msec(300));
  EXPECT_FALSE(alarmed);
  value = 10.0;  // no probe fires; the periodic tick must pick this up
  s.runUntil(sim::msec(600));
  EXPECT_TRUE(alarmed);
}

TEST_F(Fixture, BufferLengthSensorReadsSocket) {
  osim::Host host(s, "h");
  auto sock = host.createSocket(100000);
  auto sensor = makeBufferLengthSensor(s, "buf", "buffer_size", sock);
  osim::Message m;
  m.bytes = 1234;
  sock->deliver(m);
  EXPECT_DOUBLE_EQ(sensor->currentValue(), 1234.0);
  EXPECT_EQ(sensor->read(), "1234");
}

// ---- CpuShareSensor ----

TEST_F(Fixture, CpuShareTracksActualShare) {
  osim::Host host(s, "h");
  auto busy = host.spawn("busy", [](osim::Process& p) {
    // ~50% duty cycle: 10ms compute, 10ms sleep.
    struct L {
      static void run(osim::Process& q) {
        if (q.terminated()) return;
        q.compute(sim::msec(10), [&q] {
          q.sleepFor(sim::msec(10), [&q] { run(q); });
        });
      }
    };
    L::run(p);
  });
  CpuShareSensor share(s, "cpu", "cpu_share", *busy);
  s.runUntil(sim::sec(5));
  EXPECT_NEAR(share.currentValue(), 0.5, 0.1);
  host.shutdown();
}

TEST_F(Fixture, CpuShareAlarmOnStarvation) {
  osim::Host host(s, "h");
  auto victim = host.spawn("victim", [](osim::Process& p) {
    struct L {
      static void run(osim::Process& q) {
        if (q.terminated()) return;
        q.compute(sim::msec(20), [&q] { run(q); });
      }
    };
    L::run(p);
  });
  CpuShareSensor share(s, "cpu", "cpu_share", *victim);
  bool alarmed = false;
  share.setAlarmHandler([&](Sensor&, int, bool holds) { alarmed = !holds; });
  share.installComparison(policy::PolicyCmp::kGt, 0.5, 1);
  s.runUntil(sim::sec(2));
  EXPECT_FALSE(alarmed) << "alone it gets ~100%";
  // Starve it with a higher-priority competitor.
  auto hog = host.spawn("hog", [](osim::Process& p) {
    struct L {
      static void run(osim::Process& q) {
        if (q.terminated()) return;
        q.compute(sim::msec(20), [&q] { run(q); });
      }
    };
    L::run(p);
  });
  hog->setTsUserPriority(60);
  s.runUntil(sim::sec(6));
  EXPECT_TRUE(alarmed);
  host.shutdown();
}

// ---- CounterSensor / actuators / registry ----

TEST_F(Fixture, CounterSensorAccumulates) {
  CounterSensor c(s, "c", "count");
  c.increment();
  c.increment(2.5);
  EXPECT_DOUBLE_EQ(c.currentValue(), 3.5);
}

TEST_F(Fixture, QualityLevelActuatorStepsWithinBounds) {
  QualityLevelActuator a("q", 0, 3, 2);
  a.invoke({"down"});
  a.invoke({"down"});
  a.invoke({"down"});
  EXPECT_EQ(a.level(), 0);
  a.invoke({"up"});
  EXPECT_EQ(a.level(), 1);
  EXPECT_EQ(a.invocations(), 4u);
}

TEST_F(Fixture, CallbackActuatorForwardsArgs) {
  std::vector<std::string> seen;
  CallbackActuator a("cb", [&](const std::vector<std::string>& args) {
    seen = args;
  });
  a.invoke({"x", "y"});
  EXPECT_EQ(seen, (std::vector<std::string>{"x", "y"}));
}

TEST_F(Fixture, RegistryLooksUpByIdAndAttribute) {
  SensorRegistry reg;
  reg.addSensor(std::make_shared<GaugeSensor>(s, "g1", "alpha"));
  reg.addSensor(std::make_shared<GaugeSensor>(s, "g2", "beta"));
  reg.addActuator(std::make_shared<QualityLevelActuator>("q", 0, 5, 3));
  EXPECT_NE(reg.sensor("g1"), nullptr);
  EXPECT_EQ(reg.sensor("nope"), nullptr);
  EXPECT_EQ(reg.sensorForAttribute("beta")->id(), "g2");
  EXPECT_EQ(reg.sensorForAttribute("nope"), nullptr);
  EXPECT_NE(reg.actuator("q"), nullptr);
  EXPECT_EQ(reg.sensorCount(), 2u);
}

// ---- Report wire format ----

TEST(Report, SerializeParseRoundTrip) {
  ViolationReport r;
  r.policyId = "NotifyQoSViolation";
  r.pid = 12;
  r.hostName = "client-host";
  r.executable = "VideoApplication";
  r.userRole = "gold";
  r.violated = true;
  r.metrics = {{"frame_rate", 17.5}, {"buffer_size", 4096.0}};
  const auto back = ViolationReport::parse(r.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->policyId, r.policyId);
  EXPECT_EQ(back->pid, 12u);
  EXPECT_EQ(back->userRole, "gold");
  EXPECT_TRUE(back->violated);
  EXPECT_DOUBLE_EQ(back->metric("frame_rate").value_or(0), 17.5);
  EXPECT_EQ(back->metric("nope"), std::nullopt);
}

TEST(Report, ClearReportRoundTrips) {
  ViolationReport r;
  r.policyId = "p";
  r.violated = false;
  const auto back = ViolationReport::parse(r.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->violated);
}

TEST(Report, GarbageDoesNotParse) {
  EXPECT_FALSE(ViolationReport::parse("hello").has_value());
  EXPECT_FALSE(ViolationReport::parse("QOSRPT|a|b").has_value());
  EXPECT_FALSE(ViolationReport::parse("QOSRPT|p|1|h|e|r|X|").has_value());
  // A pid or metric that is not wholly a number rejects the report.
  EXPECT_FALSE(ViolationReport::parse("QOSRPT|p|4x2|h|e|r|V|").has_value());
  EXPECT_FALSE(ViolationReport::parse("QOSRPT|p|-4|h|e|r|V|").has_value());
  EXPECT_FALSE(ViolationReport::parse("QOSRPT|p|4|h|e|r|V|fps=abc").has_value());
  EXPECT_FALSE(ViolationReport::parse("QOSRPT|p|4|h|e|r|V|fps=1e400").has_value());
}

// ---- Coordinator (Examples 3 & 4) ----

struct CoordFixture : Fixture {
  SensorRegistry registry;
  std::vector<ViolationReport> reports;
  std::unique_ptr<Coordinator> coord;
  GaugeSensor* fps = nullptr;
  GaugeSensor* jitter = nullptr;
  GaugeSensor* buffer = nullptr;
  int nextComparisonId = 1;

  void SetUp() override {
    auto f = std::make_shared<GaugeSensor>(s, "fps_sensor", "frame_rate");
    auto j = std::make_shared<GaugeSensor>(s, "jitter_sensor", "jitter_rate");
    auto b = std::make_shared<GaugeSensor>(s, "buffer_sensor", "buffer_size");
    fps = f.get();
    jitter = j.get();
    buffer = b.get();
    registry.addSensor(std::move(f));
    registry.addSensor(std::move(j));
    registry.addSensor(std::move(b));
    coord = std::make_unique<Coordinator>(
        s, "client-host", 42, "VideoApplication", registry,
        [this](const ViolationReport& r) {
          reports.push_back(r);
          return true;
        });
    coord->setRepeatInterval(0);  // transition-only for these tests
  }

  void installExample1() {
    const policy::PolicySpec spec = policy::parseObligation(R"(
oblig NotifyQoSViolation {
  subject (...)/VideoApplication/qosl_coordinator
  target fps_sensor,jitter_sensor,buffer_sensor,(...)QoSHostManager
  on not (frame_rate = 25(+2)(-2) AND jitter_rate < 1.25)
  do fps_sensor->read(out frame_rate);
     jitter_sensor->read(out jitter_rate);
     buffer_sensor->read(out buffer_size);
     (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size)
})");
    const policy::CompiledPolicy cp = policy::compilePolicy(
        spec,
        [this](const std::string& attr) {
          Sensor* sensor = registry.sensorForAttribute(attr);
          return sensor != nullptr ? sensor->id() : std::string{};
        },
        nextComparisonId);
    coord->installPolicies({cp});
  }
};

TEST_F(CoordFixture, ViolationFiresDoListAndNotifies) {
  installExample1();
  buffer->set(12000.0);
  jitter->set(0.5);
  fps->set(26.0);  // in band: no report
  EXPECT_TRUE(reports.empty());
  fps->set(15.0);  // below band: x1 false -> expression false -> notify
  ASSERT_EQ(reports.size(), 1u);
  const ViolationReport& r = reports[0];
  EXPECT_TRUE(r.violated);
  EXPECT_EQ(r.policyId, "NotifyQoSViolation");
  EXPECT_EQ(r.pid, 42u);
  EXPECT_EQ(r.executable, "VideoApplication");
  // The do-list read all three sensors (Example 1).
  EXPECT_DOUBLE_EQ(r.metric("frame_rate").value_or(0), 15.0);
  EXPECT_DOUBLE_EQ(r.metric("jitter_rate").value_or(0), 0.5);
  EXPECT_DOUBLE_EQ(r.metric("buffer_size").value_or(0), 12000.0);
  EXPECT_TRUE(coord->isViolated("NotifyQoSViolation"));
}

TEST_F(CoordFixture, UpperBandViolationAlsoNotifies) {
  installExample1();
  fps->set(26.0);
  fps->set(30.0);  // above 27: "exceeds expectation" is also a violation
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].violated);
}

TEST_F(CoordFixture, EitherConditionViolatesConjunction) {
  installExample1();
  fps->set(25.0);
  jitter->set(2.0);  // jitter violation alone trips the policy
  ASSERT_EQ(reports.size(), 1u);
}

TEST_F(CoordFixture, RecoverySendsClearReport) {
  installExample1();
  fps->set(15.0);
  fps->set(25.0);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_FALSE(reports[1].violated);
  EXPECT_FALSE(coord->isViolated("NotifyQoSViolation"));
  EXPECT_EQ(coord->violationsReported(), 1u);
  EXPECT_EQ(coord->clearsReported(), 1u);
}

TEST_F(CoordFixture, BothComparisonsMustClearBeforeCompliance) {
  installExample1();
  fps->set(15.0);   // violates x1 (>23)
  jitter->set(3.0); // violates x3
  ASSERT_EQ(reports.size(), 1u);
  fps->set(25.0);   // x1 clears, x3 still violated -> no clear report
  EXPECT_EQ(reports.size(), 1u);
  jitter->set(0.2);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_FALSE(reports[1].violated);
}

TEST_F(CoordFixture, RepeatedNotificationsWhileViolated) {
  coord->setRepeatInterval(sim::msec(500));
  installExample1();
  fps->set(15.0);
  s.runUntil(sim::msec(1800));
  // Initial notification + repeats at 500/1000/1500ms.
  EXPECT_EQ(reports.size(), 4u);
  fps->set(25.0);  // synchronous clear report; cancels repetition
  const auto count = reports.size();
  EXPECT_EQ(count, 5u);
  EXPECT_FALSE(reports.back().violated);
  s.runUntil(sim::sec(5));
  EXPECT_EQ(reports.size(), count) << "no repeats after compliance";
}

TEST_F(CoordFixture, RemovePolicyUnwiresSensors) {
  installExample1();
  EXPECT_GT(fps->comparisonCount(), 0u);
  EXPECT_TRUE(coord->removePolicy("NotifyQoSViolation"));
  EXPECT_FALSE(coord->removePolicy("NotifyQoSViolation"));
  EXPECT_EQ(fps->comparisonCount(), 0u);
  fps->set(1.0);
  EXPECT_TRUE(reports.empty());
  EXPECT_EQ(coord->policyCount(), 0u);
}

TEST_F(CoordFixture, ReinstallReplacesPolicy) {
  installExample1();
  installExample1();  // same policy id again
  EXPECT_EQ(coord->policyCount(), 1u);
}

TEST_F(CoordFixture, MissingSensorThrowsOnInstall) {
  policy::CompiledPolicy cp;
  cp.policyId = "bad";
  policy::CompiledCondition cc;
  cc.sensorId = "no-such-sensor";
  cp.conditions.push_back(cc);
  EXPECT_THROW(coord->installPolicies({cp}), InstrumentError);
}

TEST_F(CoordFixture, ActuatorActionRunsOnViolationOnly) {
  int invocations = 0;
  registry.addActuator(std::make_shared<CallbackActuator>(
      "quality", [&](const std::vector<std::string>&) { ++invocations; }));
  policy::PolicySpec spec = policy::parseObligation(
      "oblig A {\n subject x/E/qosl_coordinator\n"
      " on not (frame_rate > 20)\n"
      " do fps_sensor->read(out frame_rate);\n"
      "    quality->adjust(down)\n}");
  int cid = 100;
  const policy::CompiledPolicy cp = policy::compilePolicy(
      spec, [](const std::string&) { return std::string("fps_sensor"); }, cid);
  coord->installPolicies({cp});
  fps->set(25.0);
  fps->set(10.0);  // violation -> actuator fires
  EXPECT_EQ(invocations, 1);
  fps->set(25.0);  // clear -> actuator must NOT fire
  EXPECT_EQ(invocations, 1);
}

TEST_F(CoordFixture, UserRoleIsCarriedInReports) {
  coord->setUserRole("gold");
  installExample1();
  fps->set(10.0);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].userRole, "gold");
}

}  // namespace
}  // namespace softqos::instrument
