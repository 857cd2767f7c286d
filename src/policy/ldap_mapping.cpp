#include "policy/ldap_mapping.hpp"

#include "policy/condition.hpp"
#include "sim/text.hpp"

namespace softqos::policy {

using ldapdir::Dn;
using ldapdir::Entry;

namespace dit {

const Dn& root() {
  static const Dn dn = Dn::parse("o=uwo");
  return dn;
}
const Dn& applications() {
  static const Dn dn = Dn::parse("ou=applications,o=uwo");
  return dn;
}
const Dn& executables() {
  static const Dn dn = Dn::parse("ou=executables,o=uwo");
  return dn;
}
const Dn& sensors() {
  static const Dn dn = Dn::parse("ou=sensors,o=uwo");
  return dn;
}
const Dn& conditions() {
  static const Dn dn = Dn::parse("ou=conditions,o=uwo");
  return dn;
}
const Dn& actions() {
  static const Dn dn = Dn::parse("ou=actions,o=uwo");
  return dn;
}
const Dn& policies() {
  static const Dn dn = Dn::parse("ou=policies,o=uwo");
  return dn;
}
const Dn& roles() {
  static const Dn dn = Dn::parse("ou=roles,o=uwo");
  return dn;
}
const Dn& contracts() {
  static const Dn dn = Dn::parse("ou=contracts,o=uwo");
  return dn;
}

std::vector<Entry> containerEntries() {
  std::vector<Entry> out;
  Entry rootEntry(root());
  rootEntry.addValue("objectClass", "organization");
  rootEntry.addValue("o", "uwo");
  out.push_back(std::move(rootEntry));
  for (const Dn& dn : {applications(), executables(), sensors(), conditions(),
                       actions(), policies(), roles(), contracts()}) {
    Entry e(dn);
    e.addValue("objectClass", "container");
    e.addValue("ou", dn.leaf().value);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace dit

namespace {

template <typename T>
T numberOr(const Entry& entry, const std::string& attr, T fallback) {
  const auto v = entry.firstValue(attr);
  if (!v.has_value()) return fallback;
  const auto number = sim::parseNumber<T>(*v);
  if (!number) {
    throw MappingError("entry " + entry.dn().toString() + " attribute " +
                       attr + " is not a number: " + *v);
  }
  return *number;
}

std::string require(const Entry& entry, const std::string& attr) {
  const auto v = entry.firstValue(attr);
  if (!v.has_value()) {
    throw MappingError("entry " + entry.dn().toString() +
                       " missing attribute " + attr);
  }
  return *v;
}

}  // namespace

Entry toEntry(const ApplicationInfo& app) {
  Entry e(dit::applications().child("cn", app.name));
  e.addValue("objectClass", "qosApplication");
  e.addValue("cn", app.name);
  for (const std::string& exec : app.executables) {
    e.addValue("executableRef", exec);
  }
  return e;
}

Entry toEntry(const ExecutableInfo& exec) {
  Entry e(dit::executables().child("cn", exec.name));
  e.addValue("objectClass", "qosExecutable");
  e.addValue("cn", exec.name);
  if (!exec.path.empty()) e.addValue("path", exec.path);
  for (const std::string& sensor : exec.sensorIds) {
    e.addValue("sensorRef", sensor);
  }
  return e;
}

Entry toEntry(const SensorInfo& sensor) {
  Entry e(dit::sensors().child("cn", sensor.id));
  e.addValue("objectClass", "qosSensor");
  e.addValue("cn", sensor.id);
  for (const std::string& attr : sensor.attributes) {
    e.addValue("monitorsAttribute", attr);
  }
  if (!sensor.probeName.empty()) e.addValue("probeName", sensor.probeName);
  return e;
}

Entry toEntry(const UserRole& role) {
  Entry e(dit::roles().child("cn", role.name));
  e.addValue("objectClass", "qosUserRole");
  e.addValue("cn", role.name);
  e.addValue("priorityWeight", std::to_string(role.priorityWeight));
  return e;
}

ApplicationInfo applicationFromEntry(const Entry& entry) {
  ApplicationInfo app;
  app.name = require(entry, "cn");
  if (const auto* refs = entry.values("executableref")) {
    app.executables = *refs;
  }
  return app;
}

ExecutableInfo executableFromEntry(const Entry& entry) {
  ExecutableInfo exec;
  exec.name = require(entry, "cn");
  exec.path = entry.firstValue("path").value_or("");
  if (const auto* refs = entry.values("sensorref")) exec.sensorIds = *refs;
  return exec;
}

SensorInfo sensorFromEntry(const Entry& entry) {
  SensorInfo sensor;
  sensor.id = require(entry, "cn");
  if (const auto* attrs = entry.values("monitorsattribute")) {
    sensor.attributes = *attrs;
  }
  sensor.probeName = entry.firstValue("probename").value_or("");
  return sensor;
}

UserRole roleFromEntry(const Entry& entry) {
  UserRole role;
  role.name = require(entry, "cn");
  role.priorityWeight = numberOr(entry, "priorityweight", 1);
  return role;
}

Entry toEntry(const ContractSpec& contract) {
  Entry e(dit::contracts().child("cn", contract.name));
  e.addValue("objectClass", "qosContract");
  e.addValue("cn", contract.name);
  if (!contract.executable.empty()) {
    e.addValue("executableRef", contract.executable);
  }
  if (!contract.application.empty()) {
    e.addValue("applicationRef", contract.application);
  }
  if (!contract.userRole.empty()) e.addValue("userRole", contract.userRole);
  if (contract.hasOffer) e.addValue("offeredQos", contract.offer.toString());
  if (contract.hasRequest) {
    e.addValue("requestedQos", contract.request.toString());
  }
  if (!contract.deadlineAttribute.empty()) {
    e.addValue("deadlineAttribute", contract.deadlineAttribute);
  }
  e.addValue("enabled", contract.enabled ? "TRUE" : "FALSE");
  return e;
}

ContractSpec contractFromEntry(const Entry& entry) {
  ContractSpec contract;
  contract.name = require(entry, "cn");
  contract.executable = entry.firstValue("executableref").value_or("");
  contract.application = entry.firstValue("applicationref").value_or("");
  contract.userRole = entry.firstValue("userrole").value_or("");
  contract.deadlineAttribute =
      entry.firstValue("deadlineattribute").value_or("");
  contract.enabled = entry.firstValue("enabled").value_or("TRUE") != "FALSE";
  try {
    if (const auto offered = entry.firstValue("offeredqos")) {
      contract.offer = parseQosOffer(*offered);
      contract.hasOffer = true;
    }
    if (const auto requested = entry.firstValue("requestedqos")) {
      contract.request = parseQosRequest(*requested);
      contract.hasRequest = true;
    }
  } catch (const std::invalid_argument& e) {
    throw MappingError("contract " + contract.name + ": " + e.what());
  }
  return contract;
}

Entry conditionToEntry(const PolicyCondition& cond, const std::string& cn) {
  Entry e(dit::conditions().child("cn", cn));
  e.addValue("objectClass", "qosCondition");
  e.addValue("cn", cn);
  e.addValue("conditionAttribute", cond.attribute);
  e.addValue("comparator", policyCmpName(cond.op));
  e.addValue("threshold", formatNumber(cond.threshold));
  if (cond.tolerance.above > 0) {
    e.addValue("toleranceAbove", formatNumber(cond.tolerance.above));
  }
  if (cond.tolerance.below > 0) {
    e.addValue("toleranceBelow", formatNumber(cond.tolerance.below));
  }
  return e;
}

PolicyCondition conditionFromEntry(const Entry& entry) {
  PolicyCondition cond;
  cond.id = require(entry, "cn");
  cond.attribute = require(entry, "conditionattribute");
  cond.op = parsePolicyCmp(require(entry, "comparator"));
  cond.threshold = numberOr(entry, "threshold", 0.0);
  cond.tolerance.above = numberOr(entry, "toleranceabove", 0.0);
  cond.tolerance.below = numberOr(entry, "tolerancebelow", 0.0);
  return cond;
}

namespace {

std::string actionKindName(PolicyAction::Kind kind) {
  switch (kind) {
    case PolicyAction::Kind::kSensorRead: return "sensorRead";
    case PolicyAction::Kind::kNotifyHostManager: return "notify";
    case PolicyAction::Kind::kActuatorInvoke: return "actuator";
  }
  return "?";
}

PolicyAction::Kind parseActionKind(const std::string& s) {
  if (s == "sensorRead") return PolicyAction::Kind::kSensorRead;
  if (s == "notify") return PolicyAction::Kind::kNotifyHostManager;
  if (s == "actuator") return PolicyAction::Kind::kActuatorInvoke;
  throw MappingError("unknown actionKind: " + s);
}

}  // namespace

Entry actionToEntry(const PolicyAction& action, const std::string& cn) {
  Entry e(dit::actions().child("cn", cn));
  e.addValue("objectClass", "qosAction");
  e.addValue("cn", cn);
  e.addValue("actionKind", actionKindName(action.kind));
  e.addValue("target", action.target);
  if (!action.method.empty()) e.addValue("method", action.method);
  for (const std::string& arg : action.arguments) {
    e.addValue("argument", arg);
  }
  return e;
}

PolicyAction actionFromEntry(const Entry& entry) {
  PolicyAction action;
  action.id = require(entry, "cn");
  action.kind = parseActionKind(require(entry, "actionkind"));
  action.target = entry.firstValue("target").value_or("");
  action.method = entry.firstValue("method").value_or(
      action.kind == PolicyAction::Kind::kNotifyHostManager ? "notify" : "read");
  if (const auto* args = entry.values("argument")) action.arguments = *args;
  return action;
}

std::vector<Entry> policyToEntries(const PolicySpec& spec) {
  if (spec.customExpr.has_value()) {
    throw MappingError(
        "policy " + spec.name +
        ": nested condition expressions cannot be stored (the information "
        "model's combinator attribute is flat; see Section 6.1)");
  }
  std::vector<Entry> out;
  Entry policy(dit::policies().child("cn", spec.name));
  policy.addValue("objectClass", "qosPolicy");
  policy.addValue("cn", spec.name);
  policy.addValue("applicationRef",
                  spec.application.empty() ? "*" : spec.application);
  policy.addValue("executableRef", spec.executable);
  policy.addValue("combinator",
                  spec.combinator == PolicySpec::Combinator::kConjunction
                      ? "AND"
                      : "OR");
  if (!spec.userRole.empty()) policy.addValue("userRole", spec.userRole);
  policy.addValue("enabled", spec.enabled ? "TRUE" : "FALSE");
  if (!spec.subjectPath.empty()) policy.addValue("subjectPath", spec.subjectPath);
  for (const std::string& t : spec.targets) policy.addValue("targetPath", t);

  int inlineIndex = 1;
  for (const PolicyCondition& cond : spec.conditions) {
    std::string cn = cond.id;
    if (cn.empty()) {
      cn = spec.name + "-c" + std::to_string(inlineIndex++);
      out.push_back(conditionToEntry(cond, cn));
    }
    policy.addValue("conditionRef", cn);
  }
  inlineIndex = 1;
  for (const PolicyAction& action : spec.actions) {
    std::string cn = action.id;
    if (cn.empty()) {
      cn = spec.name + "-a" + std::to_string(inlineIndex++);
      out.push_back(actionToEntry(action, cn));
    }
    policy.addValue("actionRef", cn);
  }
  out.push_back(std::move(policy));
  return out;
}

PolicySpec policyFromEntry(const Entry& entry,
                           const ldapdir::Directory& directory) {
  PolicySpec spec;
  spec.name = require(entry, "cn");
  spec.application = entry.firstValue("applicationref").value_or("");
  if (spec.application == "*") spec.application.clear();
  spec.executable = require(entry, "executableref");
  spec.userRole = entry.firstValue("userrole").value_or("");
  spec.combinator = require(entry, "combinator") == "OR"
                        ? PolicySpec::Combinator::kDisjunction
                        : PolicySpec::Combinator::kConjunction;
  spec.enabled = entry.firstValue("enabled").value_or("TRUE") != "FALSE";
  spec.subjectPath = entry.firstValue("subjectpath").value_or("");
  if (const auto* targets = entry.values("targetpath")) spec.targets = *targets;

  if (const auto* refs = entry.values("conditionref")) {
    for (const std::string& ref : *refs) {
      const Entry* cond = directory.lookup(dit::conditions().child("cn", ref));
      if (cond == nullptr) {
        throw MappingError("policy " + spec.name +
                           ": dangling conditionRef " + ref);
      }
      spec.conditions.push_back(conditionFromEntry(*cond));
    }
  }
  if (const auto* refs = entry.values("actionref")) {
    for (const std::string& ref : *refs) {
      const Entry* action = directory.lookup(dit::actions().child("cn", ref));
      if (action == nullptr) {
        throw MappingError("policy " + spec.name + ": dangling actionRef " + ref);
      }
      spec.actions.push_back(actionFromEntry(*action));
    }
  }
  return spec;
}

}  // namespace softqos::policy
