#include "instrument/control.hpp"

#include <cstdlib>
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
  const auto parts = sim::splitString(text, '|');
  if (parts.size() < 2 || parts[0] != "CTL") return false;
  const std::string& verb = parts[1];
  if (verb == "adapt" && parts.size() >= 3) {
    out.kind = Kind::kAdapt;
    out.target = parts[2];
    out.args.assign(parts.begin() + 3, parts.end());
    return true;
  }
  if (verb == "set-threshold" && parts.size() == 4) {
    out.kind = Kind::kSetThreshold;
    out.comparisonId = std::atoi(parts[2].c_str());
    out.value = std::strtod(parts[3].c_str(), nullptr);
    return true;
  }
  if (verb == "enable-sensor" && parts.size() == 4) {
    out.kind = Kind::kEnableSensor;
    out.target = parts[2];
    out.enable = parts[3] != "0";
    return true;
  }
  if (verb == "set-tick" && parts.size() == 4) {
    out.kind = Kind::kSetTick;
    out.target = parts[2];
    out.tickMicros = std::atoll(parts[3].c_str());
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
