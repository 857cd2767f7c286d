#include "instrument/report.hpp"

#include <cstdlib>
#include <sstream>

#include "sim/text.hpp"

namespace softqos::instrument {

std::optional<double> ViolationReport::metric(const std::string& name) const {
  for (const auto& [k, v] : metrics) {
    if (k == name) return v;
  }
  return std::nullopt;
}

std::string ViolationReport::serialize() const {
  std::ostringstream out;
  out << "QOSRPT|" << policyId << "|" << pid << "|" << hostName << "|"
      << executable << "|" << userRole << "|" << (violated ? "V" : "C") << "|";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out << ";";
    out << metrics[i].first << "=" << metrics[i].second;
  }
  if (context.valid()) out << "|" << context.serialize();
  return out.str();
}

std::optional<ViolationReport> ViolationReport::parse(const std::string& text) {
  const auto parts = sim::splitString(text, '|', 9);
  if ((parts.size() != 8 && parts.size() != 9) || parts[0] != "QOSRPT") {
    return std::nullopt;
  }
  ViolationReport r;
  r.policyId = parts[1];
  r.pid = static_cast<std::uint32_t>(std::strtoul(parts[2].c_str(), nullptr, 10));
  r.hostName = parts[3];
  r.executable = parts[4];
  r.userRole = parts[5];
  if (parts[6] == "V") {
    r.violated = true;
  } else if (parts[6] == "C") {
    r.violated = false;
  } else {
    return std::nullopt;
  }
  if (!parts[7].empty()) {
    for (const std::string& kv : sim::splitString(parts[7], ';')) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) return std::nullopt;
      r.metrics.emplace_back(kv.substr(0, eq),
                             std::strtod(kv.c_str() + eq + 1, nullptr));
    }
  }
  if (parts.size() == 9) r.context = sim::TraceContext::parse(parts[8]);
  return r;
}

}  // namespace softqos::instrument
