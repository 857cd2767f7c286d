// The Section 9/10 extensions: the manager->process control channel
// (adaptation, run-time retuning), overload handling via application
// adaptation, and proactive QoS (trend prediction).
#include <gtest/gtest.h>

#include "apps/testbed.hpp"
#include "instrument/proactive.hpp"

namespace softqos {
namespace {

using instrument::ControlCommand;

// ---- ControlCommand wire format ----

TEST(ControlCommand, AdaptRoundTrip) {
  ControlCommand c;
  c.kind = ControlCommand::Kind::kAdapt;
  c.target = "quality";
  c.args = {"down", "fast"};
  ControlCommand back;
  ASSERT_TRUE(ControlCommand::parse(c.serialize(), back));
  EXPECT_EQ(back.kind, ControlCommand::Kind::kAdapt);
  EXPECT_EQ(back.target, "quality");
  EXPECT_EQ(back.args, (std::vector<std::string>{"down", "fast"}));
}

TEST(ControlCommand, SetThresholdRoundTrip) {
  ControlCommand c;
  c.kind = ControlCommand::Kind::kSetThreshold;
  c.comparisonId = 7;
  c.value = 23.5;
  ControlCommand back;
  ASSERT_TRUE(ControlCommand::parse(c.serialize(), back));
  EXPECT_EQ(back.comparisonId, 7);
  EXPECT_DOUBLE_EQ(back.value, 23.5);
}

TEST(ControlCommand, EnableAndTickRoundTrip) {
  ControlCommand en;
  en.kind = ControlCommand::Kind::kEnableSensor;
  en.target = "fps_sensor";
  en.enable = false;
  ControlCommand back;
  ASSERT_TRUE(ControlCommand::parse(en.serialize(), back));
  EXPECT_EQ(back.kind, ControlCommand::Kind::kEnableSensor);
  EXPECT_FALSE(back.enable);

  ControlCommand tick;
  tick.kind = ControlCommand::Kind::kSetTick;
  tick.target = "fps_sensor";
  tick.tickMicros = 125000;
  ASSERT_TRUE(ControlCommand::parse(tick.serialize(), back));
  EXPECT_EQ(back.tickMicros, 125000);
}

TEST(ControlCommand, RemovePolicyRoundTrip) {
  ControlCommand c;
  c.kind = ControlCommand::Kind::kRemovePolicy;
  c.target = "P1";
  ControlCommand back;
  ASSERT_TRUE(ControlCommand::parse(c.serialize(), back));
  EXPECT_EQ(back.kind, ControlCommand::Kind::kRemovePolicy);
  EXPECT_EQ(back.target, "P1");
}

TEST(ControlCommand, GarbageIsRejected) {
  ControlCommand out;
  EXPECT_FALSE(ControlCommand::parse("", out));
  EXPECT_FALSE(ControlCommand::parse("hello", out));
  EXPECT_FALSE(ControlCommand::parse("CTL|unknown-verb|x", out));
  EXPECT_FALSE(ControlCommand::parse("CTL|set-threshold|1", out));
  EXPECT_FALSE(ControlCommand::parse("CTL|adapt", out));
  // Numbers are strict: no trailing bytes, no hex, no wrap.
  EXPECT_FALSE(ControlCommand::parse("CTL|set-threshold|7z|1.5", out));
  EXPECT_FALSE(ControlCommand::parse("CTL|set-threshold|7|1.5q", out));
  EXPECT_FALSE(ControlCommand::parse("CTL|set-threshold|99999999999|1", out));
  EXPECT_FALSE(ControlCommand::parse("CTL|set-tick|fps|0x10", out));
  EXPECT_FALSE(ControlCommand::parse("CTL|enable-sensor|fps|yes", out));
}

// ---- Coordinator control execution (end-to-end through the testbed) ----

struct ControlFixture : ::testing::Test {
  apps::Testbed bed{apps::TestbedConfig{.seed = 71}};

  void SetUp() override {
    bed.startVideo();
    bed.sim.runUntil(sim::sec(2));
  }
};

TEST_F(ControlFixture, AdaptCommandDrivesTheActuator) {
  EXPECT_EQ(bed.video->qualityActuator()->level(), 2);
  ControlCommand c;
  c.kind = ControlCommand::Kind::kAdapt;
  c.target = "quality";
  c.args = {"down"};
  bed.clientHm->sendControl(bed.video->clientPid(), c);
  bed.sim.runUntil(bed.sim.now() + sim::msec(10));
  EXPECT_EQ(bed.video->qualityActuator()->level(), 1);
  EXPECT_EQ(bed.video->coordinator()->controlCommandsExecuted(), 1u);
}

TEST_F(ControlFixture, ThresholdRetuneChangesViolationBehaviour) {
  // Tighten the lower frame-rate bound above the achievable rate: the
  // running, healthy stream must become violated without any recompilation
  // ("we are able to change QoS requirements while an application is
  // executing" — Section 9).
  ControlCommand c;
  c.kind = ControlCommand::Kind::kSetThreshold;
  c.comparisonId = 1;  // first compiled comparison: frame_rate > lower
  c.value = 45.0;
  bed.clientHm->sendControl(bed.video->clientPid(), c);
  bed.sim.runUntil(bed.sim.now() + sim::sec(2));
  EXPECT_TRUE(bed.video->coordinator()->isViolated("NotifyQoSViolation"));
}

TEST_F(ControlFixture, DisablingASensorSilencesItsAlarms) {
  ControlCommand c;
  c.kind = ControlCommand::Kind::kEnableSensor;
  c.target = "fps_sensor";
  c.enable = false;
  bed.clientHm->sendControl(bed.video->clientPid(), c);
  bed.sim.runUntil(bed.sim.now() + sim::msec(10));
  const auto before = bed.video->registry().sensor("fps_sensor")->alarmsRaised();
  bed.video->killServer();  // stream stops; a live fps sensor would alarm
  bed.sim.runUntil(bed.sim.now() + sim::sec(5));
  EXPECT_EQ(bed.video->registry().sensor("fps_sensor")->alarmsRaised(), before);
}

TEST_F(ControlFixture, RemovePolicyViaControlChannel) {
  ControlCommand c;
  c.kind = ControlCommand::Kind::kRemovePolicy;
  c.target = "NotifyQoSViolation";
  bed.clientHm->sendControl(bed.video->clientPid(), c);
  bed.sim.runUntil(bed.sim.now() + sim::msec(10));
  EXPECT_FALSE(bed.video->coordinator()->hasPolicy("NotifyQoSViolation"));
}

TEST_F(ControlFixture, UnknownTargetsAreCountedAsRejected) {
  ControlCommand c;
  c.kind = ControlCommand::Kind::kAdapt;
  c.target = "no-such-actuator";
  EXPECT_FALSE(bed.video->coordinator()->executeControl(c));
  EXPECT_EQ(bed.video->coordinator()->controlCommandsRejected(), 1u);
}

// ---- Overload adaptation (Section 10 iii) ----

TEST(Overload, ExhaustedCpuKnobsTriggerQualityAdaptation) {
  apps::TestbedConfig config;
  config.seed = 73;
  // A stream whose full-quality decode exceeds the whole CPU: no allocation
  // can satisfy the policy; only application adaptation can.
  config.video.decodePerKiB = sim::usec(4200);  // capacity ~ 17 fps at full q
  apps::Testbed bed(config);
  bed.startVideo();
  bed.sim.runUntil(sim::sec(60));
  EXPECT_GT(bed.clientHm->adaptationsRequested(), 0u)
      << "the overload rule must ask the application to adapt";
  EXPECT_LT(bed.video->qualityActuator()->level(), 2)
      << "the quality actuator must have stepped down";
  const double fps = bed.measureFps(sim::sec(10));
  EXPECT_GT(fps, 25.0) << "reduced quality must restore the frame rate";
}

// ---- Rerouting around congestion (Section 3.1's adaptation example) ----

TEST(Reroute, CongestionFailsOverToTheRedundantPath) {
  apps::TestbedConfig config;
  config.seed = 81;
  config.bottleneckMbit = 5.0;
  config.redundantPath = true;
  apps::Testbed bed(config);
  bed.startVideo();
  bed.sim.runUntil(sim::sec(5));
  bed.setCrossTraffic(4.9);
  bed.sim.runUntil(sim::sec(45));
  EXPECT_GE(bed.dm->diagnosisCounts().count("network-congestion"), 1u);
  EXPECT_GE(bed.dm->reroutesPerformed(), 1u);
  EXPECT_FALSE(bed.network.linkEnabled(bed.swA.id(), bed.swB.id()))
      << "the congested primary link must be taken out of service";
  const double fps = bed.measureFps(sim::sec(15));
  EXPECT_GT(fps, 25.0) << "the stream must recover over the alternate path";
}

TEST(Reroute, WithoutAnAlternativePathTheChangeRollsBack) {
  apps::TestbedConfig config;
  config.seed = 82;
  config.bottleneckMbit = 5.0;
  config.redundantPath = false;
  apps::Testbed bed(config);
  bed.startVideo();
  bed.sim.runUntil(sim::sec(5));
  bed.setCrossTraffic(4.9);
  bed.sim.runUntil(sim::sec(40));
  EXPECT_GE(bed.dm->rerouteRollbacks(), 1u);
  EXPECT_EQ(bed.dm->reroutesPerformed(), 0u);
  EXPECT_TRUE(bed.network.linkEnabled(bed.swA.id(), bed.swB.id()))
      << "a reroute that would partition the service must be undone";
}

// ---- TrendMonitor (proactive QoS, Section 10 iv) ----

struct TrendFixture : ::testing::Test {
  sim::Simulation s{1};
  instrument::GaugeSensor sensor{s, "g", "frame_rate"};
  double firedCurrent = -1;
  double firedPredicted = -1;
  int fires = 0;

  std::unique_ptr<instrument::TrendMonitor> make(double threshold) {
    return std::make_unique<instrument::TrendMonitor>(
        s, sensor, policy::PolicyCmp::kGt, threshold,
        instrument::TrendMonitor::Config{},
        [this](double current, double predicted) {
          firedCurrent = current;
          firedPredicted = predicted;
          ++fires;
        });
  }

  /// Feed a linear ramp anchored at the current time: the value starts at
  /// `start` and changes by `slopePerSec`, sampled 10 times a second.
  void ramp(double start, double slopePerSec, sim::SimDuration duration) {
    const sim::SimTime t0 = s.now();
    const sim::SimTime until = t0 + duration;
    while (s.now() < until) {
      s.runUntil(s.now() + sim::msec(100));
      sensor.set(start + slopePerSec * sim::toSeconds(s.now() - t0));
    }
  }
};

TEST_F(TrendFixture, PredictsViolationBeforeItHappens) {
  auto monitor = make(25.0);
  monitor->start();
  // Declining from 30 at 1 fps/s: crosses 25 at t=5s; the 2s-horizon monitor
  // must fire around t=3s, while the current value is still compliant.
  ramp(30.0, -1.0, sim::sec(4));
  EXPECT_EQ(fires, 1);
  EXPECT_GT(firedCurrent, 25.0) << "fired while still compliant";
  EXPECT_LT(firedPredicted, 25.0);
  EXPECT_NEAR(monitor->slopePerSecond(), -1.0, 0.3);
}

TEST_F(TrendFixture, StableStreamNeverFires) {
  auto monitor = make(25.0);
  monitor->start();
  ramp(29.0, 0.0, sim::sec(10));
  EXPECT_EQ(fires, 0);
}

TEST_F(TrendFixture, FiresOncePerEpisodeAndRearms) {
  auto monitor = make(25.0);
  monitor->start();
  ramp(30.0, -1.0, sim::sec(4));  // first episode (ends at ~26, declining)
  EXPECT_EQ(fires, 1);
  ramp(26.0, +2.0, sim::sec(4));  // recovery to ~34 re-arms the monitor
  ramp(34.0, -2.0, sim::sec(4));  // second decline (ends at ~26, declining)
  EXPECT_EQ(fires, 2);
}

TEST_F(TrendFixture, StopHaltsSampling) {
  auto monitor = make(25.0);
  monitor->start();
  s.runUntil(sim::sec(1));
  const auto samples = monitor->samplesTaken();
  monitor->stop();
  s.runUntil(sim::sec(3));
  EXPECT_EQ(monitor->samplesTaken(), samples);
  EXPECT_FALSE(monitor->running());
}

TEST(ProactiveRule, PredictedMetricTriggersHeadStartBoost) {
  sim::Simulation s(1);
  osim::Host host(s, "client-host");
  manager::QoSHostManager hm(s, host, nullptr);
  auto p = host.spawn("video", [](osim::Process& q) {
    q.compute(sim::sec(100), [] {});
  });
  instrument::ViolationReport r;
  r.policyId = "NotifyQoSViolation";
  r.pid = p->pid();
  r.hostName = "client-host";
  r.executable = "VideoApplication";
  r.violated = true;
  r.metrics = {{"frame_rate", 27.0},  // still compliant
               {"predicted_frame_rate", 21.0},
               {"buffer_size", 12000.0}};
  hm.handleReport(r);
  EXPECT_EQ(hm.cpuManager().tsPriority(p->pid()), 4)
      << "only the proactive rule applies while current fps is in band";
  host.shutdown();
}

}  // namespace
}  // namespace softqos
