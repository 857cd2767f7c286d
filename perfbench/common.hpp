// Shared plumbing for the softqos benchmark program: run options, the result
// report (metrics with units, operation counts, correctness checks), timing
// and statistics helpers, and the per-layer metric table every workload
// fills in.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Host-clock stopwatch over std::chrono::steady_clock.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  [[nodiscard]] std::uint64_t nanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Process CPU-time stopwatch (CLOCK_PROCESS_CPUTIME_ID). On a shared
/// machine that time-slices the benchmark with other tenants, CPU time
/// excludes the time the process sat descheduled, which wall time does not.
class CpuStopwatch {
 public:
  CpuStopwatch() : start_(now()) {}
  [[nodiscard]] double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  }
  double start_;
};

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

[[nodiscard]] double meanOf(const std::vector<double>& values);

[[nodiscard]] std::uint64_t fnv1a(std::string_view text);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peakRssMb();

/// Everything one run reports; the JSON lists metrics sorted by name.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A correctness check. A failed check is counted as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// Workload operations attempted and failed (excluding checks).
  void ops(std::uint64_t attempted, std::uint64_t failed);
  /// Free-form text carried to the caller (e.g. the Fig. 3 CSV).
  void artifact(const std::string& name, const std::string& text);
  /// A labelled value that is not a metric (sim-clock outputs, notes).
  void info(const std::string& name, const std::string& value);

  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<Check> checks_;
  std::map<std::string, std::string> artifacts_;
  std::map<std::string, std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host-clock end-to-end samples every workload collects. A step is timed
/// in short parts (a slice of simulated time, or one call), and every
/// episode of one seed runs the same steps in the same parts, so part i of
/// every episode does the same work. A part's best (minimum) CPU time over
/// the run's episodes filters out interference, and a step's best time is
/// the sum of its parts' best times. Parts are short because the host
/// preempts a shared machine's virtual CPUs many times a second and process
/// CPU time still counts the stopped time: a part under a millisecond often
/// runs without a stop in some episode, a 40 ms step almost never does.
/// Set-up is timed the same way: every set-up of one seed builds the same
/// world in the same parts, and setup_s is the sum of the parts' best times.
struct EndToEnd {
  std::vector<std::vector<double>> setups;  // CPU us per part, per set-up
  std::vector<std::vector<double>> episodes;  // CPU us per part, per episode
  std::vector<std::size_t> stepEnds;  // parts up to the end of each step
  std::vector<double> stepWallMicros;  // wall us of every step, every episode

  void beginSetup() { setups.emplace_back(); }
  void setupPart(double cpuMicros) { setups.back().push_back(cpuMicros); }
  void beginEpisode() { episodes.emplace_back(); }
  void part(double cpuMicros) { episodes.back().push_back(cpuMicros); }
  /// Closes the step made of the parts recorded since the previous one.
  void endStep(double wallMicros) {
    if (episodes.size() == 1) stepEnds.push_back(episodes.back().size());
    stepWallMicros.push_back(wallMicros);
  }
  /// Per step, the sum over its parts of each part's minimum CPU time over
  /// the episodes.
  [[nodiscard]] std::vector<double> bestSteps() const;
  /// The sum over set-up parts of each part's minimum CPU time over the
  /// set-ups, in seconds.
  [[nodiscard]] double bestSetupSeconds() const;
};

/// Runs `work` and, when `e2e` is given, records its CPU time as one part
/// of the current step.
template <typename Work>
void timedPart(EndToEnd* e2e, Work&& work) {
  const CpuStopwatch cpu;
  work();
  if (e2e != nullptr) e2e->part(cpu.seconds() * 1e6);
}

/// Runs `work` and, when `e2e` is given, records its CPU time as one part
/// of the current set-up.
template <typename Work>
void timedSetupPart(EndToEnd* e2e, Work&& work) {
  const CpuStopwatch cpu;
  work();
  if (e2e != nullptr) e2e->setupPart(cpu.seconds() * 1e6);
}

/// Emits setup_s (sum of the best set-up parts), step_cpu_us_p50 (median
/// best step time),
/// episode_cpu_ms (sum of the best step times: one episode's measured steps
/// without interference) and peak_rss_mb. Wall-clock step percentiles over
/// every step go out as info.
void emitEndToEnd(Report& report, const EndToEnd& e2e);

/// The per-layer table of a traced run. Every workload emits every field;
/// layers a workload does not exercise stay 0.
struct Layers {
  // sim: the event kernel, timed through SpanObserver::onEventExecuted.
  std::uint64_t simEvents = 0;
  double simTracedWallNs = 0;  // wall of the profiled Simulation::runUntil calls
  double simCallbackNs = 0;    // sum of per-event callback wall ns
  double simCallbackNsP50 = 0;
  double simCallbackNsP99 = 0;
  std::uint64_t simQueueDepthMax = 0;
  // osim
  std::uint64_t osimContextSwitches = 0;
  std::uint64_t osimPreemptions = 0;
  // net
  std::uint64_t netPackets = 0;
  std::uint64_t netForwarded = 0;
  std::uint64_t netDrops = 0;
  std::uint64_t netUnreachable = 0;
  // instrument
  std::uint64_t instrObservations = 0;
  std::uint64_t instrAlarms = 0;
  std::uint64_t instrReports = 0;
  std::uint64_t instrPasses = 0;
  double instrPassNsP50 = 0;
  // rules
  std::uint64_t rulesFirings = 0;
  double rulesFireNs = 0;
  double rulesFireNsP99 = 0;
  std::uint64_t rulesActionErrors = 0;
  // manager
  std::uint64_t mgrReports = 0;
  std::uint64_t mgrEscalationsSent = 0;
  std::uint64_t mgrEscalationsReceived = 0;
  std::uint64_t mgrTelemetryFrames = 0;
  std::uint64_t mgrAggregatePublishes = 0;
  std::uint64_t mgrRpcCalls = 0;
  std::uint64_t mgrRpcTimeouts = 0;
  std::uint64_t mgrRpcRetries = 0;
  double mgrRpcRttMsP50 = 0;  // simulated clock
  double mgrRpcRttMsP99 = 0;  // simulated clock
  // distribution
  std::uint64_t distRegistrations = 0;
  std::uint64_t distPushes = 0;
  std::uint64_t distAdmissionsFull = 0;
  std::uint64_t distAdmissionsDegraded = 0;
  std::uint64_t distAdmissionsRejected = 0;
  std::uint64_t distProbes = 0;
  std::uint64_t distFailovers = 0;
  double distRegisterUsP50 = 0;
  double distRegisterUsP99 = 0;
  double distAdminWriteUsP50 = 0;
  double distAdminWriteUsP99 = 0;
  double distRefreshNs = 0;
  double distFailoverMs = 0;  // simulated clock: crash -> owner change
  // policy
  double policyParseNsP50 = 0;
  double policyCheckNsP50 = 0;
  // ldapdir
  std::uint64_t ldapEntries = 0;
  double ldapLookupNsP50 = 0;
  // obs
  std::uint64_t obsSpansTotal = 0;
  std::uint64_t obsSpansRetained = 0;
  std::uint64_t obsEvicted = 0;
  std::uint64_t obsOrphans = 0;
  double obsFlushNs = 0;
  double obsExportNs = 0;
  double obsAnalyzeNs = 0;
  // apps
  double appsBuildNs = 0;
  double appsFpsManagedMin = 0;  // simulated clock
  // tracing cost: mean step CPU us, untraced vs traced episodes of one run
  double untracedStepUs = 0;
  double tracedStepUs = 0;
};

void emitLayers(Report& report, const Layers& layers);

/// Time in seconds since `origin` has reached the run's budget.
[[nodiscard]] inline bool budgetSpent(const Stopwatch& origin,
                                      const Options& options) {
  return origin.seconds() >= options.seconds;
}

}  // namespace perfbench
