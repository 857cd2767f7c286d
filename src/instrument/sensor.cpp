#include "instrument/sensor.hpp"

#include <sstream>
#include <stdexcept>

#include "sim/text.hpp"

namespace softqos::instrument {

Sensor::Sensor(sim::Simulation& simulation, std::string id, std::string attribute)
    : sim_(simulation), id_(std::move(id)), attribute_(std::move(attribute)) {}

Sensor::~Sensor() {
  if (tickEvent_ != sim::kInvalidEvent) sim_.cancel(tickEvent_);
}

void Sensor::setEnabled(bool enabled) {
  if (enabled_ == enabled) return;
  enabled_ = enabled;
  if (!enabled_ && tickEvent_ != sim::kInvalidEvent) {
    sim_.cancel(tickEvent_);
    tickEvent_ = sim::kInvalidEvent;
  }
  if (enabled_ && tickInterval_ > 0) scheduleTick();
}

void Sensor::init(const std::string& thresholdText,
                  const std::string& comparatorText, int comparisonId) {
  // The sensor is responsible for the string->type conversion (Section 5.2).
  const auto value = sim::parseNumber<double>(thresholdText);
  if (!value) throw std::invalid_argument("bad sensor threshold: " + thresholdText);
  installComparison(policy::parsePolicyCmp(comparatorText), *value, comparisonId);
}

void Sensor::installComparison(policy::PolicyCmp op, double value,
                               int comparisonId) {
  removeComparison(comparisonId);
  InstalledComparison installed;
  installed.comparisonId = comparisonId;
  installed.op = op;
  installed.value = value;
  comparisons_.push_back(installed);
}

bool Sensor::removeComparison(int comparisonId) {
  for (auto it = comparisons_.begin(); it != comparisons_.end(); ++it) {
    if (it->comparisonId == comparisonId) {
      comparisons_.erase(it);
      return true;
    }
  }
  return false;
}

void Sensor::clearComparisons() { comparisons_.clear(); }

bool Sensor::setHysteresis(int comparisonId, double band) {
  for (InstalledComparison& c : comparisons_) {
    if (c.comparisonId == comparisonId) {
      c.hysteresis = band < 0 ? 0 : band;
      return true;
    }
  }
  return false;
}

bool Sensor::updateThreshold(int comparisonId, double newValue) {
  for (InstalledComparison& c : comparisons_) {
    if (c.comparisonId == comparisonId) {
      c.value = newValue;
      // Re-evaluate immediately so a threshold change takes effect without
      // waiting for the next observation.
      if (enabled_ && observations_ > 0) evaluate(currentValue());
      return true;
    }
  }
  return false;
}

std::string Sensor::read() const {
  std::ostringstream out;
  out << currentValue();
  return out.str();
}

void Sensor::setTickInterval(sim::SimDuration interval) {
  tickInterval_ = interval;
  if (tickEvent_ != sim::kInvalidEvent) {
    sim_.cancel(tickEvent_);
    tickEvent_ = sim::kInvalidEvent;
  }
  if (enabled_ && tickInterval_ > 0) scheduleTick();
}

void Sensor::scheduleTick() {
  // One periodic event per sensor; disabling or re-tuning the cadence
  // cancels/re-arms it, so the closure here never needs a liveness check.
  tickEvent_ = sim_.every(tickInterval_, [this] {
    onTick();
    evaluate(currentValue());
  });
}

void Sensor::observe(double value) {
  if (!enabled_) return;
  ++observations_;
  evaluate(value);
}

void Sensor::evaluate(double value) {
  for (InstalledComparison& c : comparisons_) {
    bool holds =
        policy::PrimitiveComparison{attribute_, c.op, c.value}.holds(value);
    if (holds && !c.lastHolds && c.hysteresis > 0) {
      // Alarmed with a hysteresis band: only clear once the value recovers
      // past the threshold by the band, so values hovering at the threshold
      // do not flap alarm/clear on every sample.
      double rearm = c.value;
      switch (c.op) {
        case policy::PolicyCmp::kGe:
        case policy::PolicyCmp::kGt:
          rearm = c.value + c.hysteresis;
          break;
        case policy::PolicyCmp::kLe:
        case policy::PolicyCmp::kLt:
          rearm = c.value - c.hysteresis;
          break;
        default:
          break;  // equality comparators: band has no direction
      }
      holds = policy::PrimitiveComparison{attribute_, c.op, rearm}.holds(value);
    }
    if (holds == c.lastHolds) continue;
    c.lastHolds = holds;
    if (holds) {
      ++clears_;
    } else {
      ++alarms_;
      // Detection is where a causal chain is born: the violating sample
      // roots the episode trace. The handler claims the context; an
      // unclaimed span is closed below so it never dangles open.
      if (sim::SpanObserver* o = sim_.observer()) {
        alarmContext_ = o->beginTrace(sim_.now(), "episode:" + attribute_,
                                      "sensor:" + id_);
        o->annotate(alarmContext_, "sensor", id_);
        o->annotate(alarmContext_, "value", read());
      }
    }
    if (alarmHandler_) alarmHandler_(*this, c.comparisonId, holds);
    if (alarmContext_.valid()) {
      if (sim::SpanObserver* o = sim_.observer()) {
        o->endSpan(sim_.now(), alarmContext_);
      }
      alarmContext_ = sim::TraceContext{};
    }
  }
}

}  // namespace softqos::instrument
