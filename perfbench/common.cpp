#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[idx];
}

double meanOf(const std::vector<double>& values) {
  double sum = 0;
  for (const double x : values) sum += x;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::artifact(const std::string& name, const std::string& text) {
  artifacts_[name] = text;
}

void Report::info(const std::string& name, const std::string& value) {
  info_[name] = value;
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"ops\": " << attempted_ << ", \"ops_failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ", ") << quote(name) << ": {\"value\": "
        << number(m.value) << ", \"unit\": " << quote(m.unit) << "}";
    first = false;
  }
  out << "}, \"checks\": [";
  first = true;
  for (const Check& c : checks_) {
    out << (first ? "" : ", ") << "{\"name\": " << quote(c.name)
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"detail\": " << quote(c.detail) << "}";
    first = false;
  }
  out << "], \"info\": {";
  first = true;
  for (const auto& [name, value] : info_) {
    out << (first ? "" : ", ") << quote(name) << ": " << quote(value);
    first = false;
  }
  out << "}, \"artifacts\": {";
  first = true;
  for (const auto& [name, text] : artifacts_) {
    out << (first ? "" : ", ") << quote(name) << ": " << quote(text);
    first = false;
  }
  out << "}}";
  return out.str();
}

namespace {

/// Per part index, the minimum over the runs of that part.
std::vector<double> bestParts(const std::vector<std::vector<double>>& runs) {
  std::vector<double> best;
  for (const std::vector<double>& run : runs) {
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (i == best.size()) {
        best.push_back(run[i]);
      } else {
        best[i] = std::min(best[i], run[i]);
      }
    }
  }
  return best;
}

}  // namespace

double EndToEnd::bestSetupSeconds() const {
  double sum = 0;
  for (const double us : bestParts(setups)) sum += us;
  return sum / 1e6;
}

std::vector<double> EndToEnd::bestSteps() const {
  const std::vector<double> best = bestParts(episodes);
  std::vector<double> steps;
  std::size_t begin = 0;
  for (const std::size_t end : stepEnds) {
    double sum = 0;
    for (std::size_t i = begin; i < end; ++i) sum += best[i];
    steps.push_back(sum);
    begin = end;
  }
  return steps;
}

void emitEndToEnd(Report& report, const EndToEnd& e2e) {
  const std::vector<double> best = e2e.bestSteps();
  report.metric("setup_s", e2e.bestSetupSeconds(), "s");
  report.metric("step_cpu_us_p50", percentile(best, 50.0), "us");
  double episode = 0;
  for (const double us : best) episode += us;
  report.metric("episode_cpu_ms", episode / 1e3, "ms");
  report.info("step_wall_us_p50", std::to_string(percentile(e2e.stepWallMicros, 50.0)));
  report.info("step_wall_us_p90", std::to_string(percentile(e2e.stepWallMicros, 90.0)));
  report.metric("peak_rss_mb", peakRssMb(), "MiB");
  std::vector<double> wholeSetups;
  for (const std::vector<double>& setup : e2e.setups) {
    double us = 0;
    for (const double part : setup) us += part;
    wholeSetups.push_back(us / 1e3);
  }
  report.info("setup_cpu_ms_p50", std::to_string(median(wholeSetups)));
  report.info("setups", std::to_string(e2e.setups.size()));
  report.info("episodes", std::to_string(e2e.episodes.size()));
  report.info("steps", std::to_string(e2e.stepWallMicros.size()));
}

void emitLayers(Report& report, const Layers& l) {
  auto count = [&report](const char* name, std::uint64_t v) {
    report.metric(name, static_cast<double>(v), "count");
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  count("sim.events", l.simEvents);
  report.metric("sim.traced_wall_ms", l.simTracedWallNs / 1e6, "ms");
  report.metric("sim.events_per_wall_s",
                ratio(static_cast<double>(l.simEvents), l.simTracedWallNs / 1e9),
                "1/s");
  report.metric("sim.callback_ms", l.simCallbackNs / 1e6, "ms");
  report.metric("sim.dispatch_self_ms",
                (l.simTracedWallNs - l.simCallbackNs) / 1e6, "ms");
  report.metric("sim.callback_ns_p50", l.simCallbackNsP50, "ns");
  report.metric("sim.callback_ns_p99", l.simCallbackNsP99, "ns");
  count("sim.queue_depth_max", l.simQueueDepthMax);

  count("osim.context_switches", l.osimContextSwitches);
  count("osim.preemptions", l.osimPreemptions);

  count("net.packets", l.netPackets);
  count("net.forwarded", l.netForwarded);
  count("net.drops", l.netDrops);
  count("net.unreachable", l.netUnreachable);

  count("instrument.observations", l.instrObservations);
  count("instrument.alarms", l.instrAlarms);
  count("instrument.reports", l.instrReports);
  count("instrument.passes", l.instrPasses);
  report.metric("instrument.pass_ns_p50", l.instrPassNsP50, "ns");

  count("rules.firings", l.rulesFirings);
  report.metric("rules.fire_ms", l.rulesFireNs / 1e6, "ms");
  report.metric("rules.fire_ns_p99", l.rulesFireNsP99, "ns");
  count("rules.action_errors", l.rulesActionErrors);

  count("manager.reports", l.mgrReports);
  count("manager.escalations_sent", l.mgrEscalationsSent);
  count("manager.escalations_received", l.mgrEscalationsReceived);
  report.metric("manager.escalation_delivery",
                ratio(static_cast<double>(l.mgrEscalationsReceived),
                      static_cast<double>(l.mgrEscalationsSent)),
                "ratio");
  count("manager.telemetry_frames", l.mgrTelemetryFrames);
  count("manager.aggregate_publishes", l.mgrAggregatePublishes);
  count("manager.rpc_calls", l.mgrRpcCalls);
  count("manager.rpc_timeouts", l.mgrRpcTimeouts);
  count("manager.rpc_retries", l.mgrRpcRetries);
  report.metric("manager.rpc_rtt_ms_p50", l.mgrRpcRttMsP50, "sim_ms");
  report.metric("manager.rpc_rtt_ms_p99", l.mgrRpcRttMsP99, "sim_ms");

  count("distribution.registrations", l.distRegistrations);
  count("distribution.pushes", l.distPushes);
  count("distribution.admissions_full", l.distAdmissionsFull);
  count("distribution.admissions_degraded", l.distAdmissionsDegraded);
  count("distribution.admissions_rejected", l.distAdmissionsRejected);
  count("distribution.probes", l.distProbes);
  count("distribution.failovers", l.distFailovers);
  report.metric("distribution.register_us_p50", l.distRegisterUsP50, "us");
  report.metric("distribution.register_us_p99", l.distRegisterUsP99, "us");
  report.metric("distribution.admin_write_us_p50", l.distAdminWriteUsP50, "us");
  report.metric("distribution.admin_write_us_p99", l.distAdminWriteUsP99, "us");
  report.metric("distribution.refresh_ms", l.distRefreshNs / 1e6, "ms");
  report.metric("distribution.failover_ms", l.distFailoverMs, "sim_ms");

  report.metric("policy.parse_ns_p50", l.policyParseNsP50, "ns");
  report.metric("policy.check_ns_p50", l.policyCheckNsP50, "ns");

  count("ldapdir.entries", l.ldapEntries);
  report.metric("ldapdir.lookup_ns_p50", l.ldapLookupNsP50, "ns");

  count("obs.spans_total", l.obsSpansTotal);
  count("obs.spans_retained", l.obsSpansRetained);
  report.metric("obs.retention",
                ratio(static_cast<double>(l.obsSpansRetained),
                      static_cast<double>(l.obsSpansTotal)),
                "ratio");
  count("obs.evicted", l.obsEvicted);
  count("obs.orphans", l.obsOrphans);
  report.metric("obs.flush_ms", l.obsFlushNs / 1e6, "ms");
  report.metric("obs.export_ms", l.obsExportNs / 1e6, "ms");
  report.metric("obs.analyze_ms", l.obsAnalyzeNs / 1e6, "ms");

  report.metric("apps.build_ms", l.appsBuildNs / 1e6, "ms");
  report.metric("apps.fps_managed_min", l.appsFpsManagedMin, "fps");

  report.metric("trace.untraced_step_us", l.untracedStepUs, "us");
  report.metric("trace.traced_step_us", l.tracedStepUs, "us");
  report.metric("trace.overhead_pct",
                l.untracedStepUs > 0
                    ? 100.0 * (l.tracedStepUs - l.untracedStepUs) / l.untracedStepUs
                    : 0.0,
                "%");
}

}  // namespace perfbench
