// Sensors collect metric information inside instrumented processes
// (Section 5.1). A sensor monitors one attribute; policies install primitive
// comparisons on it (via init, with an internal comparison id); the sensor
// reports *transitions* — an alarm when a comparison stops holding, a clear
// when it holds again — to the coordinator.
//
// Faithful to Section 5.2, the external value interface is character-based:
// init() takes the threshold as a string and read() returns the value as a
// string; the sensor performs the conversions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "policy/condition.hpp"
#include "sim/simulation.hpp"

namespace softqos::instrument {

class Sensor {
 public:
  /// (sensor, comparisonId, holds): holds=false is an alarm report,
  /// holds=true a clear report.
  using AlarmHandler = std::function<void(Sensor&, int comparisonId, bool holds)>;

  Sensor(sim::Simulation& simulation, std::string id, std::string attribute);
  virtual ~Sensor();

  Sensor(const Sensor&) = delete;
  Sensor& operator=(const Sensor&) = delete;

  [[nodiscard]] const std::string& id() const { return id_; }
  [[nodiscard]] const std::string& attribute() const { return attribute_; }

  /// Sensors can be enabled/disabled at run time (Section 5.1). A disabled
  /// sensor ignores observations and stops its periodic tick.
  void setEnabled(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Character-form installation (Section 5.2): threshold string + comparator
  /// string + the coordinator's internal comparison id. Throws
  /// std::invalid_argument on a threshold that is not a strict number or an
  /// unknown comparator.
  void init(const std::string& thresholdText, const std::string& comparatorText,
            int comparisonId);

  /// Typed installation used by the coordinator's compiled policies.
  void installComparison(policy::PolicyCmp op, double value, int comparisonId);
  bool removeComparison(int comparisonId);
  void clearComparisons();
  [[nodiscard]] std::size_t comparisonCount() const { return comparisons_.size(); }

  /// Thresholds can be changed while the application executes (Section 9).
  bool updateThreshold(int comparisonId, double newValue);

  /// Hysteresis band between alarm and clear: once alarmed, the comparison
  /// re-arms only when the value recovers past the threshold by `band`
  /// (kGe/kGt: value >= threshold + band; kLe/kLt: value <= threshold -
  /// band; equality comparators ignore the band). The alarm edge itself is
  /// unchanged. Kills alarm/clear flapping when a fleet of sensors hovers at
  /// its thresholds. Returns false for an unknown comparison id; 0 (the
  /// default) restores plain transition reporting.
  bool setHysteresis(int comparisonId, double band);

  /// Character-form read (Section 5.2).
  [[nodiscard]] std::string read() const;

  /// Current value of the monitored attribute.
  [[nodiscard]] virtual double currentValue() const = 0;

  void setAlarmHandler(AlarmHandler handler) { alarmHandler_ = std::move(handler); }

  /// Periodic self-evaluation cadence; lets the sensor notice conditions that
  /// only manifest as *absence* of probe activity (e.g. a stalled stream).
  /// Zero disables the tick. Adjustable at run time (Section 5.1).
  void setTickInterval(sim::SimDuration interval);
  [[nodiscard]] sim::SimDuration tickInterval() const { return tickInterval_; }

  [[nodiscard]] std::uint64_t alarmsRaised() const { return alarms_; }
  [[nodiscard]] std::uint64_t clearsRaised() const { return clears_; }
  [[nodiscard]] std::uint64_t observations() const { return observations_; }

  /// Causal tracing: when an observer is attached, the sensor mints a root
  /// "episode" span the moment it observes a violating sample. The alarm
  /// handler (a Coordinator) claims it to carry the context through the
  /// management loop; if nobody claims it, the sensor closes it right after
  /// the handler returns. Returns an invalid context when there is nothing
  /// to claim.
  [[nodiscard]] sim::TraceContext claimAlarmContext() {
    const sim::TraceContext ctx = alarmContext_;
    alarmContext_ = sim::TraceContext{};
    return ctx;
  }

 protected:
  /// Subclasses call this on every new measurement.
  void observe(double value);

  /// Hook for tick-driven sensors to refresh a derived value before the
  /// comparisons are evaluated (default: no-op).
  virtual void onTick() {}

  [[nodiscard]] sim::Simulation& sim() const { return sim_; }

 private:
  struct InstalledComparison {
    int comparisonId = 0;
    policy::PolicyCmp op = policy::PolicyCmp::kEq;
    double value = 0.0;
    double hysteresis = 0.0;  // clear band above/below the threshold
    bool lastHolds = true;    // optimistic until the first observation
  };

  void evaluate(double value);
  void scheduleTick();

  sim::Simulation& sim_;
  std::string id_;
  std::string attribute_;
  bool enabled_ = true;
  std::vector<InstalledComparison> comparisons_;
  AlarmHandler alarmHandler_;
  sim::TraceContext alarmContext_;
  sim::SimDuration tickInterval_ = 0;
  sim::EventId tickEvent_ = sim::kInvalidEvent;
  std::uint64_t alarms_ = 0;
  std::uint64_t clears_ = 0;
  std::uint64_t observations_ = 0;
};

}  // namespace softqos::instrument
