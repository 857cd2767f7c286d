// churn: the paper's distribution plane without a workload event loop.
// Sessions register with the Policy Agent (repository lookup, policy
// compilation, coordinator install), run instrumentation passes, and
// deregister, from a pool of live sessions. Every few steps an AdminTool
// write (add / disable / enable / remove a policy) auto-pushes the new
// policy set to every live session; the push is coalesced onto the
// simulation's event loop, which the step then drains. README.md says which
// of the constants below come from the repository's benchmarks and which
// are placeholders.
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "apps/video_model.hpp"
#include "distribution/admin.hpp"
#include "distribution/policy_agent.hpp"
#include "instrument/sensors.hpp"
#include "policy/parser.hpp"
#include "profiler.hpp"
#include "sim/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace softqos;

constexpr int kApplications = 12;
// The largest repository of the E7 policy-lookup benchmark
// (bench/abl_policy_machinery.cpp, BM_PoliciesForLookup/128).
constexpr int kBasePolicies = 128;
constexpr std::size_t kLiveSessions = 16;
constexpr int kPassesPerStep = 8;
constexpr int kStepsPerAdminWrite = 4;
constexpr int kStepsPerEpisode = 100;
constexpr int kStepsPerRecount = 50;
// Set-ups per untraced episode: the episode's own and spares built only to
// be timed, so each set-up part's best time has many samples.
constexpr int kSetupsPerEpisode = 8;
const char* const kRoles[] = {"", "gold", "silver"};
const char* const kExecutable = "VideoApplication";

std::string appName(int i) { return "App" + std::to_string(i); }

struct Session {
  std::uint32_t pid = 0;
  std::string application;
  std::string role;
  instrument::SensorRegistry registry;
  instrument::GaugeSensor* fps = nullptr;
  std::unique_ptr<instrument::Coordinator> coordinator;
};

/// Host-clock samples of the traced episodes' timed calls.
struct CallTimes {
  std::vector<double> registerUs;
  std::vector<double> adminWriteUs;
  std::vector<double> passNs;
  std::vector<double> parseNs;
  std::vector<double> checkNs;
  std::vector<double> lookupNs;
  // Wall ns summed over the traced steps, for the breakdown of a step.
  double deregisterNs = 0;
  double stepNs = 0;
};

/// One policy the admin tool adds: Example 1 obligation text and the
/// application and role it is stored under.
struct NewPolicy {
  std::string name;
  std::string text;
  std::string application;
  std::string role;
};

class ChurnWorld {
 public:
  ChurnWorld(const Options& options, bool profiled, CallTimes& times)
      : profiled_(profiled),
        times_(times),
        sim_(options.seed),
        rng_(options.seed, "perfbench:churn") {}

  /// Seeds the repository: the video model and the applications as one
  /// set-up part of `setup` when given, then each base policy as one part.
  void populate(EndToEnd* setup) {
    timedSetupPart(setup, [&] {
      apps::seedVideoModel(repo_);
      for (int a = 0; a < kApplications; ++a) {
        repo_.addApplication(policy::ApplicationInfo{appName(a), {kExecutable}});
      }
    });
    for (int i = 0; i < kBasePolicies; ++i) {
      timedSetupPart(setup, [&] {
        if (!addPolicy(newPolicy("base" + std::to_string(i), i % kApplications))) {
          ++failures_;
        }
      });
    }
    agent_.enableAutoPush();
    if (profiled_) attach_ = std::make_unique<ProfilerAttachment>(sim_, profiler_);
  }

  /// One closed-loop step: retire the oldest session when the pool is full,
  /// register a new one, run instrumentation passes, and every few steps
  /// make an admin write and deliver its push. Each of the three is one
  /// timed part when `parts` is given.
  void step(int index, EndToEnd* parts) {
    timedPart(parts, [&] {
      if (sessions_.size() >= kLiveSessions) retire();
      admit();
    });
    timedPart(parts, [&] {
      for (int p = 0; p < kPassesPerStep; ++p) pass();
    });
    if (index % kStepsPerAdminWrite == kStepsPerAdminWrite - 1) {
      timedPart(parts, [&] { adminWrite(); });
    }
  }

  /// Every live session's delivered policy count must equal an independent
  /// repository recount. Returns sessions checked.
  std::uint64_t recount() {
    for (const auto& s : sessions_) {
      const Stopwatch watch;
      const std::size_t expected =
          repo_.policiesFor(s->application, kExecutable, s->role).size();
      if (profiled_) times_.lookupNs.push_back(static_cast<double>(watch.nanos()));
      ++recounted_;
      if (s->coordinator->policyCount() != expected) ++mismatches_;
    }
    return sessions_.size();
  }

  void finish(Layers& l) {
    while (!sessions_.empty()) retire();
    l.simEvents = profiler_.events();
    l.simCallbackNs = profiler_.callbackNanos();
    l.simTracedWallNs = loopNs_;
    l.simQueueDepthMax = profiler_.maxDepth();
    l.instrObservations = observations_;
    l.instrAlarms = alarms_;
    l.instrReports = notifications_;
    l.instrPasses = passes_;
    l.distRegistrations = agent_.registrations();
    l.distPushes = agent_.pushes();
    l.distAdmissionsFull = agent_.admissionsFull();
    l.distAdmissionsDegraded = agent_.admissionsDegraded();
    l.distAdmissionsRejected = agent_.admissionsRejected();
    l.distRefreshNs = loopNs_;
    l.ldapEntries = repo_.directory().size();
  }

  [[nodiscard]] const KernelProfiler& profiler() const { return profiler_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] std::uint64_t recounted() const { return recounted_; }
  /// Deterministic summary of the episode's outputs.
  [[nodiscard]] std::string digest() const {
    return "reg=" + std::to_string(agent_.registrations()) +
           ",push=" + std::to_string(agent_.pushes()) +
           ",notify=" + std::to_string(notifications_) +
           ",alarms=" + std::to_string(alarms_) +
           ",entries=" + std::to_string(repo_.directory().size()) +
           ",policies=" + std::to_string(repo_.policyNames().size());
  }

 private:
  NewPolicy newPolicy(const std::string& name, int app) {
    NewPolicy p;
    p.name = name;
    p.application = appName(app);
    p.role = kRoles[rng_.uniformInt(0, 2)];
    const double target = 24.0 + static_cast<double>(rng_.uniformInt(0, 6));
    p.text = apps::videoPolicyText(name, target, 4.0, 3.0, 1.25);
    return p;
  }

  bool addPolicy(const NewPolicy& p) {
    return admin_.addPolicyText(p.text, p.application, p.role).ok;
  }

  /// Traced: the policy layer's share of an add, from a separate parse and
  /// check of the same text. addPolicyText does both again when it stores
  /// the policy, untimed by these samples.
  void samplePolicyLayer(const NewPolicy& p) {
    Stopwatch watch;
    policy::PolicySpec spec = policy::parseObligation(p.text);
    times_.parseNs.push_back(static_cast<double>(watch.nanos()));
    spec.application = p.application;
    spec.userRole = p.role;
    watch = Stopwatch();
    (void)admin_.checkPolicy(spec);
    times_.checkNs.push_back(static_cast<double>(watch.nanos()));
  }

  void admit() {
    auto s = std::make_unique<Session>();
    s->pid = nextPid_++;
    s->application = appName(static_cast<int>(rng_.uniformInt(0, kApplications - 1)));
    s->role = kRoles[rng_.uniformInt(0, 2)];
    auto fps = std::make_shared<instrument::GaugeSensor>(sim_, "fps_sensor", "frame_rate");
    auto jitter =
        std::make_shared<instrument::GaugeSensor>(sim_, "jitter_sensor", "jitter_rate");
    auto buffer =
        std::make_shared<instrument::GaugeSensor>(sim_, "buffer_sensor", "buffer_size");
    s->fps = fps.get();
    jitter->set(0.2);
    buffer->set(8000.0);
    s->registry.addSensor(std::move(fps));
    s->registry.addSensor(std::move(jitter));
    s->registry.addSensor(std::move(buffer));
    s->coordinator = std::make_unique<instrument::Coordinator>(
        sim_, "churn-host", s->pid, kExecutable, s->registry,
        [this](const instrument::ViolationReport&) {
          ++notifications_;
          return true;
        });
    s->coordinator->setRepeatInterval(0);

    distribution::PolicyAgent::Registration reg;
    reg.pid = s->pid;
    reg.application = s->application;
    reg.executable = kExecutable;
    reg.role = s->role;
    reg.coordinator = s->coordinator.get();
    ++calls_;
    try {
      const Stopwatch watch;
      agent_.registerProcess(reg);
      if (profiled_) times_.registerUs.push_back(static_cast<double>(watch.nanos()) / 1e3);
      sessions_.push_back(std::move(s));
    } catch (const std::exception&) {
      ++failures_;
    }
  }

  void retire() {
    std::unique_ptr<Session> s = std::move(sessions_.front());
    sessions_.pop_front();
    ++calls_;
    try {
      const Stopwatch watch;
      agent_.deregisterProcess(s->pid);
      if (profiled_) times_.deregisterNs += static_cast<double>(watch.nanos());
    } catch (const std::exception&) {
      ++failures_;
    }
    for (const std::string& id : s->registry.sensorIds()) {
      observations_ += s->registry.sensor(id)->observations();
      alarms_ += s->registry.sensor(id)->alarmsRaised();
    }
  }

  /// One pass through the instrumentation: mostly in band (no transition),
  /// sometimes a violation or its clear.
  void pass() {
    if (sessions_.empty()) return;
    Session& s = *sessions_[static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(sessions_.size()) - 1))];
    const double value = rng_.chance(0.1) ? 10.0 : 28.0 + 0.5 * rng_.uniform(0.0, 1.0);
    ++calls_;
    ++passes_;
    const Stopwatch watch;
    s.fps->set(value);
    if (profiled_) times_.passNs.push_back(static_cast<double>(watch.nanos()));
  }

  void adminWrite() {
    ++calls_;
    const std::uint64_t kind = writes_++ % 4;
    // Inputs are drawn before the write's stopwatch starts.
    NewPolicy added;
    if (kind == 0) {
      added = newPolicy("w" + std::to_string(added_.size() + removed_),
                        static_cast<int>(rng_.uniformInt(0, kApplications - 1)));
      if (profiled_) samplePolicyLayer(added);
    } else if (kind == 1) {
      disabled_ = "base" + std::to_string(rng_.uniformInt(0, kBasePolicies - 1));
    }
    bool ok = true;
    const Stopwatch watch;
    switch (kind) {
      case 0:
        ok = addPolicy(added);
        if (ok) added_.push_back(added.name);
        break;
      case 1:
        ok = admin_.disablePolicy(disabled_);
        break;
      case 2:
        ok = admin_.enablePolicy(disabled_);
        break;
      default:
        if (!added_.empty()) {
          ok = admin_.removePolicy(added_.front());
          added_.pop_front();
          ++removed_;
        }
        break;
    }
    if (profiled_) times_.adminWriteUs.push_back(static_cast<double>(watch.nanos()) / 1e3);
    if (!ok) ++failures_;
    // Deliver the coalesced auto-push to every live session.
    const Stopwatch loop;
    sim_.runUntil(sim_.now() + sim::msec(1));
    loopNs_ += static_cast<double>(loop.nanos());
  }

  bool profiled_;
  CallTimes& times_;
  KernelProfiler profiler_;  // declared before the simulation that points at it
  sim::Simulation sim_;
  distribution::RepositoryService repo_;
  distribution::AdminTool admin_{repo_};
  distribution::PolicyAgent agent_{sim_, repo_};
  std::unique_ptr<ProfilerAttachment> attach_;
  sim::RandomStream rng_;
  std::deque<std::unique_ptr<Session>> sessions_;
  std::deque<std::string> added_;
  std::string disabled_;
  std::uint32_t nextPid_ = 100;
  std::uint64_t writes_ = 0;
  std::uint64_t removed_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t recounted_ = 0;
  std::uint64_t notifications_ = 0;
  std::uint64_t observations_ = 0;
  std::uint64_t alarms_ = 0;
  std::uint64_t passes_ = 0;
  double loopNs_ = 0;
};

}  // namespace

void runChurn(const Options& options, Report& report) {
  EndToEnd e2e;
  LayerEpisodes traced;
  CallTimes times;
  sim::Histogram callbackNs;
  std::vector<double> untracedCpu;
  std::vector<double> tracedCpu;
  std::vector<std::string> digests;
  std::vector<std::string> tracedDigests;
  std::uint64_t calls = 0;
  std::uint64_t failures = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t recounted = 0;
  double pushNs = 0;             // traced episodes' auto-push delivery
  std::uint64_t deliveries = 0;  // traced registrations + pushed sessions
  const Stopwatch origin;
  for (int i = 0; i == 0 || !budgetSpent(origin, options) ||
                  (options.trace && tracedDigests.empty());
       ++i) {
    const bool profiled = options.trace && i % 2 == 1;
    EndToEnd* setup = options.trace ? nullptr : &e2e;
    auto build = [&](bool profile) {
      if (setup != nullptr) e2e.beginSetup();
      std::unique_ptr<ChurnWorld> w;
      timedSetupPart(setup, [&] { w = std::make_unique<ChurnWorld>(options, profile, times); });
      w->populate(setup);
      return w;
    };
    if (setup != nullptr) {
      for (int r = 1; r < kSetupsPerEpisode; ++r) (void)build(false);
    }
    const Stopwatch setupWall;
    const std::unique_ptr<ChurnWorld> built = build(profiled);
    ChurnWorld& world = *built;
    const double setupNs = static_cast<double>(setupWall.nanos());
    std::vector<double>* cpu =
        profiled ? &tracedCpu : (options.trace ? &untracedCpu : nullptr);
    if (!options.trace) e2e.beginEpisode();
    for (int s = 0; s < kStepsPerEpisode; ++s) {
      const Stopwatch step;
      const CpuStopwatch stepCpu;
      world.step(s, options.trace ? nullptr : &e2e);
      const double us = stepCpu.seconds() * 1e6;
      if (!options.trace) e2e.endStep(step.seconds() * 1e6);
      if (cpu != nullptr) cpu->push_back(us);
      if (profiled) times.stepNs += static_cast<double>(step.nanos());
      if (s % kStepsPerRecount == kStepsPerRecount - 1) world.recount();
    }
    world.recount();
    calls += world.calls();
    failures += world.failures();
    mismatches += world.mismatches();
    recounted += world.recounted();
    Layers l;
    world.finish(l);
    (profiled ? tracedDigests : digests).push_back(world.digest());
    if (profiled) {
      l.appsBuildNs = setupNs;
      callbackNs.merge(world.profiler().callbackHistogram());
      traced.add(l);
      pushNs += l.distRefreshNs;
      deliveries += l.distRegistrations + l.distPushes;
    }
  }

  report.ops(calls, failures);
  report.check("churn.policy_counts_match_recount", mismatches == 0,
               std::to_string(mismatches) + " of " + std::to_string(recounted) +
                   " sessions disagree with policiesFor");
  bool repeat = true;
  for (const std::string& d : digests) repeat = repeat && d == digests.front();
  report.check("churn.episodes_repeat", repeat, digests.front());
  report.info("digest", digests.front());

  if (!options.trace) {
    emitEndToEnd(report, e2e);
    return;
  }
  bool same = true;
  for (const std::string& d : tracedDigests) same = same && d == digests.front();
  report.check("trace.churn_outputs_identical", same,
               "a traced episode reproduces the untraced outputs");
  report.check("trace.counts_repeat", traced.countsRepeat());
  Layers l = traced.combined();
  l.simCallbackNsP50 = callbackNs.p50();
  l.simCallbackNsP99 = callbackNs.p99();
  l.instrPassNsP50 = percentile(times.passNs, 50.0);
  l.distRegisterUsP50 = percentile(times.registerUs, 50.0);
  l.distRegisterUsP99 = percentile(times.registerUs, 99.0);
  l.distAdminWriteUsP50 = percentile(times.adminWriteUs, 50.0);
  l.distAdminWriteUsP99 = percentile(times.adminWriteUs, 99.0);
  l.policyParseNsP50 = percentile(times.parseNs, 50.0);
  l.policyCheckNsP50 = percentile(times.checkNs, 50.0);
  l.ldapLookupNsP50 = percentile(times.lookupNs, 50.0);
  l.untracedStepUs = meanOf(untracedCpu);
  l.tracedStepUs = meanOf(tracedCpu);
  emitLayers(report, l);

  // Where the traced steps' wall time goes, in percent. Every registration
  // and every pushed session runs one policiesFor lookup (ldapdir search
  // plus decoding each policy entry); lookup_in_delivery estimates its share
  // of register + push time from the median timed lookup.
  auto sum = [](const std::vector<double>& v) {
    return meanOf(v) * static_cast<double>(v.size());
  };
  const double registerNs = 1e3 * sum(times.registerUs);
  const double writeNs = 1e3 * sum(times.adminWriteUs);
  const double passNs = sum(times.passNs);
  const double parts = registerNs + pushNs + writeNs + passNs + times.deregisterNs;
  auto share = [&report, &times](const std::string& part, double ns) {
    report.info("step_share." + part, std::to_string(100.0 * ns / times.stepNs));
  };
  share("register", registerNs);
  share("push", pushNs);
  share("admin_write", writeNs);
  share("passes", passNs);
  share("deregister", times.deregisterNs);
  share("other", times.stepNs - parts);
  report.info("step_share.lookup_in_delivery",
              std::to_string(100.0 * l.ldapLookupNsP50 * static_cast<double>(deliveries) /
                             (registerNs + pushNs)));
}

}  // namespace perfbench
