#include "policy/qos_contract.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "policy/condition.hpp"
#include "sim/text.hpp"

namespace softqos::policy {

namespace {

std::string formatMs(double v) { return formatNumber(v) + "ms"; }

/// "200ms" / "0.2s" / bare number (milliseconds) -> milliseconds. A
/// duration is finite and not negative.
double parseMs(std::string_view text) {
  std::string_view number = text;
  double scale = 1.0;
  if (number.ends_with("ms")) {
    number.remove_suffix(2);
  } else if (number.ends_with('s')) {
    number.remove_suffix(1);
    scale = 1000.0;
  }
  const auto v = sim::parseNumber<double>(number);
  if (!v || !std::isfinite(*v * scale) || *v < 0) {
    throw std::invalid_argument("bad duration: " + std::string(text));
  }
  return *v * scale;
}

/// A history depth or ownership strength: a non-negative int.
int parseCount(std::string_view key, std::string_view text) {
  const auto v = sim::parseNumber<int>(text);
  if (!v || *v < 0) {
    throw std::invalid_argument("bad " + std::string(key) + ": " +
                                std::string(text));
  }
  return *v;
}

}  // namespace

const char* livelinessKindName(LivelinessKind kind) {
  switch (kind) {
    case LivelinessKind::kAutomatic: return "automatic";
    case LivelinessKind::kManual: return "manual";
  }
  return "?";
}

const char* durabilityKindName(DurabilityKind kind) {
  switch (kind) {
    case DurabilityKind::kVolatile: return "volatile";
    case DurabilityKind::kTransientLocal: return "transient_local";
  }
  return "?";
}

LivelinessKind parseLivelinessKind(const std::string& name) {
  if (name == "automatic") return LivelinessKind::kAutomatic;
  if (name == "manual") return LivelinessKind::kManual;
  throw std::invalid_argument("unknown liveliness kind: " + name);
}

DurabilityKind parseDurabilityKind(const std::string& name) {
  if (name == "volatile") return DurabilityKind::kVolatile;
  if (name == "transient_local") return DurabilityKind::kTransientLocal;
  throw std::invalid_argument("unknown durability kind: " + name);
}

const char* qosPolicyKindName(QosPolicyKind kind) {
  switch (kind) {
    case QosPolicyKind::kDeadline: return "deadline";
    case QosPolicyKind::kLiveliness: return "liveliness";
    case QosPolicyKind::kHistory: return "history";
    case QosPolicyKind::kDurability: return "durability";
    case QosPolicyKind::kOwnership: return "ownership";
  }
  return "?";
}

const char* admissionTierName(AdmissionTier tier) {
  switch (tier) {
    case AdmissionTier::kFull: return "full";
    case AdmissionTier::kDegraded: return "degraded";
    case AdmissionTier::kRejected: return "rejected";
  }
  return "?";
}

std::string QosOffer::toString() const {
  std::ostringstream out;
  if (deadlineMs > 0) out << "deadline=" << formatMs(deadlineMs) << ' ';
  if (leaseMs > 0) {
    out << "liveliness=" << livelinessKindName(liveliness) << ':'
        << formatMs(leaseMs) << ' ';
  }
  if (historyDepth > 0) out << "history=" << historyDepth << ' ';
  if (durability != DurabilityKind::kVolatile) {
    out << "durability=" << durabilityKindName(durability) << ' ';
  }
  if (ownershipStrength > 0) out << "strength=" << ownershipStrength << ' ';
  std::string s = out.str();
  if (!s.empty()) s.pop_back();
  return s;
}

std::string QosRequest::toString() const {
  std::ostringstream out;
  if (maxDeadlineMs > 0) out << "deadline<=" << formatMs(maxDeadlineMs) << ' ';
  if (maxLeaseMs > 0) out << "lease<=" << formatMs(maxLeaseMs) << ' ';
  if (minHistoryDepth > 0) out << "history>=" << minHistoryDepth << ' ';
  if (minDurability != DurabilityKind::kVolatile) {
    out << "durability>=" << durabilityKindName(minDurability) << ' ';
  }
  if (degradedDeadlineMs > 0) {
    out << "degrade-deadline<=" << formatMs(degradedDeadlineMs) << ' ';
  }
  if (degradedHistoryDepth >= 0) {
    out << "degrade-history>=" << degradedHistoryDepth << ' ';
  }
  std::string s = out.str();
  if (!s.empty()) s.pop_back();
  return s;
}

std::string AdmissionDecision::reason() const {
  std::string out;
  for (const QosMismatch& m : mismatches) {
    if (!out.empty()) out += "; ";
    out += std::string(qosPolicyKindName(m.kind)) + ": " + m.detail;
  }
  return out;
}

std::vector<QosMismatch> rxoMismatches(const QosOffer& offered,
                                       const QosRequest& requested) {
  std::vector<QosMismatch> out;
  if (requested.maxDeadlineMs > 0 &&
      (offered.deadlineMs <= 0 || offered.deadlineMs > requested.maxDeadlineMs)) {
    out.push_back({QosPolicyKind::kDeadline,
                   offered.deadlineMs <= 0
                       ? "no offered deadline, requested <= " +
                             formatMs(requested.maxDeadlineMs)
                       : "offered " + formatMs(offered.deadlineMs) +
                             " > requested " +
                             formatMs(requested.maxDeadlineMs)});
  }
  if (requested.maxLeaseMs > 0 &&
      (offered.leaseMs <= 0 || offered.leaseMs > requested.maxLeaseMs)) {
    out.push_back({QosPolicyKind::kLiveliness,
                   offered.leaseMs <= 0
                       ? "no offered lease, requested <= " +
                             formatMs(requested.maxLeaseMs)
                       : "offered lease " + formatMs(offered.leaseMs) +
                             " > requested " + formatMs(requested.maxLeaseMs)});
  }
  if (requested.minHistoryDepth > 0 &&
      offered.historyDepth < requested.minHistoryDepth) {
    out.push_back({QosPolicyKind::kHistory,
                   "offered " + std::to_string(offered.historyDepth) +
                       " < requested " +
                       std::to_string(requested.minHistoryDepth)});
  }
  if (static_cast<int>(offered.durability) <
      static_cast<int>(requested.minDurability)) {
    out.push_back({QosPolicyKind::kDurability,
                   std::string("offered ") +
                       durabilityKindName(offered.durability) +
                       " < requested " +
                       durabilityKindName(requested.minDurability)});
  }
  return out;
}

AdmissionDecision admit(const QosOffer& offered, const QosRequest& requested) {
  AdmissionDecision decision;
  decision.mismatches = rxoMismatches(offered, requested);
  if (decision.mismatches.empty()) {
    decision.tier = AdmissionTier::kFull;
    decision.effectiveDeadlineMs = requested.maxDeadlineMs > 0
                                       ? requested.maxDeadlineMs
                                       : offered.deadlineMs;
    decision.effectiveHistoryDepth = offered.historyDepth;
    return decision;
  }
  if (requested.allowDegraded()) {
    // Re-run the check against the degraded floors: a relaxed request with
    // the same don't-care semantics on unset fields.
    QosRequest relaxed = requested;
    relaxed.maxDeadlineMs = requested.degradedDeadlineMs;
    relaxed.minHistoryDepth =
        requested.degradedHistoryDepth >= 0 ? requested.degradedHistoryDepth
                                            : requested.minHistoryDepth;
    relaxed.degradedDeadlineMs = 0;
    relaxed.degradedHistoryDepth = -1;
    if (rxoMismatches(offered, relaxed).empty()) {
      decision.tier = AdmissionTier::kDegraded;
      decision.effectiveDeadlineMs = relaxed.maxDeadlineMs > 0
                                         ? relaxed.maxDeadlineMs
                                         : offered.deadlineMs;
      decision.effectiveHistoryDepth = relaxed.minHistoryDepth > 0
                                           ? relaxed.minHistoryDepth
                                           : offered.historyDepth;
      return decision;
    }
  }
  decision.tier = AdmissionTier::kRejected;
  return decision;
}

QosOffer parseQosOffer(const std::string& text) {
  QosOffer offer;
  for (const std::string_view word : sim::split(text, ' ')) {
    if (word.empty()) continue;
    const std::size_t eq = word.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("bad offer item: " + std::string(word));
    }
    const std::string_view key = word.substr(0, eq);
    const std::string_view value = word.substr(eq + 1);
    if (key == "deadline") {
      offer.deadlineMs = parseMs(value);
    } else if (key == "liveliness") {
      const std::size_t colon = value.find(':');
      if (colon == std::string_view::npos) {
        throw std::invalid_argument("liveliness needs kind:lease, got " +
                                    std::string(value));
      }
      offer.liveliness =
          parseLivelinessKind(std::string(value.substr(0, colon)));
      offer.leaseMs = parseMs(value.substr(colon + 1));
    } else if (key == "history") {
      offer.historyDepth = parseCount(key, value);
    } else if (key == "durability") {
      offer.durability = parseDurabilityKind(std::string(value));
    } else if (key == "strength") {
      offer.ownershipStrength = parseCount(key, value);
    } else {
      throw std::invalid_argument("unknown offer key: " + std::string(key));
    }
  }
  return offer;
}

QosRequest parseQosRequest(const std::string& text) {
  QosRequest request;
  for (const std::string_view word : sim::split(text, ' ')) {
    if (word.empty()) continue;
    const std::size_t op = word.find("<=");
    const std::size_t ge = word.find(">=");
    const std::size_t cut = op != std::string_view::npos ? op : ge;
    if (cut == std::string_view::npos) {
      throw std::invalid_argument("bad request item (needs <= or >=): " +
                                  std::string(word));
    }
    const std::string_view key = word.substr(0, cut);
    const std::string_view value = word.substr(cut + 2);
    if (key == "deadline" && op != std::string_view::npos) {
      request.maxDeadlineMs = parseMs(value);
    } else if (key == "lease" && op != std::string_view::npos) {
      request.maxLeaseMs = parseMs(value);
    } else if (key == "history" && ge != std::string_view::npos) {
      request.minHistoryDepth = parseCount(key, value);
    } else if (key == "durability" && ge != std::string_view::npos) {
      request.minDurability = parseDurabilityKind(std::string(value));
    } else if (key == "degrade-deadline" && op != std::string_view::npos) {
      request.degradedDeadlineMs = parseMs(value);
    } else if (key == "degrade-history" && ge != std::string_view::npos) {
      request.degradedHistoryDepth = parseCount(key, value);
    } else {
      throw std::invalid_argument("unknown request item: " + std::string(word));
    }
  }
  // The degraded floors relax the request; they may not tighten it.
  if (request.maxDeadlineMs > 0 && request.degradedDeadlineMs > 0 &&
      request.degradedDeadlineMs < request.maxDeadlineMs) {
    throw std::invalid_argument("degrade-deadline " +
                                formatMs(request.degradedDeadlineMs) +
                                " is tighter than deadline " +
                                formatMs(request.maxDeadlineMs));
  }
  if (request.minHistoryDepth > 0 &&
      request.degradedHistoryDepth > request.minHistoryDepth) {
    throw std::invalid_argument(
        "degrade-history " + std::to_string(request.degradedHistoryDepth) +
        " is tighter than history " + std::to_string(request.minHistoryDepth));
  }
  return request;
}

}  // namespace softqos::policy
