#include "instrument/control.hpp"

#include <sstream>

#include "sim/text.hpp"

namespace softqos::instrument {

std::string controlQueueKey(std::uint32_t pid) {
  return "qosl-ctl-" + std::to_string(pid);
}

std::string ControlCommand::serialize() const {
  std::ostringstream out;
  out << "CTL|";
  switch (kind) {
    case Kind::kAdapt:
      out << "adapt|" << target;
      for (const std::string& a : args) out << "|" << a;
      break;
    case Kind::kSetThreshold:
      out << "set-threshold|" << comparisonId << "|" << value;
      break;
    case Kind::kEnableSensor:
      out << "enable-sensor|" << target << "|" << (enable ? 1 : 0);
      break;
    case Kind::kSetTick:
      out << "set-tick|" << target << "|" << tickMicros;
      break;
    case Kind::kRemovePolicy:
      out << "remove-policy|" << target;
      break;
  }
  return out.str();
}

bool ControlCommand::parse(const std::string& text, ControlCommand& out) {
  const auto parts = sim::split(text, '|');
  if (parts.size() < 2 || parts[0] != "CTL") return false;
  const std::string_view verb = parts[1];
  if (verb == "adapt" && parts.size() >= 3) {
    out.kind = Kind::kAdapt;
    out.target = parts[2];
    out.args.assign(parts.begin() + 3, parts.end());
    return true;
  }
  if (verb == "set-threshold" && parts.size() == 4) {
    const auto id = sim::parseNumber<int>(parts[2]);
    const auto value = sim::parseNumber<double>(parts[3]);
    if (!id || !value) return false;
    out.kind = Kind::kSetThreshold;
    out.comparisonId = *id;
    out.value = *value;
    return true;
  }
  if (verb == "enable-sensor" && parts.size() == 4) {
    if (parts[3] != "0" && parts[3] != "1") return false;
    out.kind = Kind::kEnableSensor;
    out.target = parts[2];
    out.enable = parts[3] == "1";
    return true;
  }
  if (verb == "set-tick" && parts.size() == 4) {
    const auto tick = sim::parseNumber<std::int64_t>(parts[3]);
    if (!tick) return false;
    out.kind = Kind::kSetTick;
    out.target = parts[2];
    out.tickMicros = *tick;
    return true;
  }
  if (verb == "remove-policy" && parts.size() == 3) {
    out.kind = Kind::kRemovePolicy;
    out.target = parts[2];
    return true;
  }
  return false;
}

}  // namespace softqos::instrument
