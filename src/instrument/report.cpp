#include "instrument/report.hpp"

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
  const auto parts = sim::split(text, '|', 9);
  if ((parts.size() != 8 && parts.size() != 9) || parts[0] != "QOSRPT") {
    return std::nullopt;
  }
  const auto pid = sim::parseNumber<std::uint32_t>(parts[2]);
  if (!pid || (parts[6] != "V" && parts[6] != "C")) return std::nullopt;
  ViolationReport r;
  r.policyId = parts[1];
  r.pid = *pid;
  r.hostName = parts[3];
  r.executable = parts[4];
  r.userRole = parts[5];
  r.violated = parts[6] == "V";
  if (!parts[7].empty()) {
    for (const std::string_view kv : sim::split(parts[7], ';')) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos) return std::nullopt;
      const auto value = sim::parseNumber<double>(kv.substr(eq + 1));
      if (!value) return std::nullopt;
      r.metrics.emplace_back(kv.substr(0, eq), *value);
    }
  }
  if (parts.size() == 9) r.context = sim::TraceContext::parse(parts[8]);
  return r;
}

}  // namespace softqos::instrument
