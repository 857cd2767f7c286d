#include "distribution/repository.hpp"

#include <algorithm>

namespace softqos::distribution {

using ldapdir::Dn;
using ldapdir::Entry;
using ldapdir::Filter;
using ldapdir::LdapResult;
using ldapdir::SearchScope;

namespace {

/// The attribute's first value, or "" when it has none.
const std::string& firstOrEmpty(const Entry& entry, const std::string& attr) {
  static const std::string kEmpty;
  const std::vector<std::string>* vals = entry.values(attr);
  return vals == nullptr || vals->empty() ? kEmpty : vals->front();
}

/// policiesFor's executable, application and role checks, made on the raw
/// entry so that only matching policies are decoded.
bool appliesTo(const Entry& entry, const std::string& application,
               const std::string& executable, const std::string& role) {
  const std::vector<std::string>* execs = entry.values("executableref");
  if (execs == nullptr ||
      std::none_of(execs->begin(), execs->end(), [&](const std::string& e) {
        return ldapdir::equalsIgnoreCaseAscii(e, executable);
      })) {
    return false;
  }
  const std::string& app = firstOrEmpty(entry, "applicationref");
  const std::string& userRole = firstOrEmpty(entry, "userrole");
  return (app.empty() || app == "*" || app == application) &&
         (userRole.empty() || userRole == role);
}

}  // namespace

RepositoryService::RepositoryService(bool enforceSchema)
    : directory_(Dn::parse("o=uwo"), ldapdir::informationModelSchema(),
                 enforceSchema) {
  // Decoding a policy reads its own entry and the condition and action
  // entries it references, and any policy may reference any of those.
  directory_.addChangeListener([this](const Dn& dn) {
    if (dn.isDescendantOf(policy::dit::policies())) {
      decoded_.erase(dn.normalized());
    } else if (dn.isDescendantOf(policy::dit::conditions()) ||
               dn.isDescendantOf(policy::dit::actions())) {
      decoded_.clear();
    }
  });
  for (const Entry& e : policy::dit::containerEntries()) {
    directory_.add(e);
  }
}

LdapResult RepositoryService::addApplication(const policy::ApplicationInfo& app) {
  return directory_.add(policy::toEntry(app));
}

LdapResult RepositoryService::addExecutable(const policy::ExecutableInfo& exec) {
  return directory_.add(policy::toEntry(exec));
}

LdapResult RepositoryService::addSensor(const policy::SensorInfo& sensor) {
  return directory_.add(policy::toEntry(sensor));
}

LdapResult RepositoryService::addRole(const policy::UserRole& role) {
  return directory_.add(policy::toEntry(role));
}

LdapResult RepositoryService::addPolicy(const policy::PolicySpec& spec) {
  // Refuse early if the policy entry exists (the inline condition/action
  // entries would otherwise be half-written).
  if (directory_.lookup(policy::dit::policies().child("cn", spec.name)) !=
      nullptr) {
    return LdapResult::kEntryAlreadyExists;
  }
  std::vector<Entry> entries = policy::policyToEntries(spec);
  std::vector<Dn> written;
  for (const Entry& e : entries) {
    const LdapResult r = directory_.add(e);
    if (r != LdapResult::kSuccess && r != LdapResult::kEntryAlreadyExists) {
      for (const Dn& dn : written) directory_.remove(dn);  // roll back
      return r;
    }
    if (r == LdapResult::kSuccess) written.push_back(e.dn());
  }
  return LdapResult::kSuccess;
}

bool RepositoryService::removePolicy(const std::string& name) {
  const Dn dn = policy::dit::policies().child("cn", name);
  const Entry* entry = directory_.lookup(dn);
  if (entry == nullptr) return false;

  // Drop inline condition/action entries created for this policy (their cn
  // carries the policy-name prefix); shared reusable entries stay.
  std::vector<Dn> toRemove;
  for (const char* attr : {"conditionref", "actionref"}) {
    if (const auto* refs = entry->values(attr)) {
      for (const std::string& ref : *refs) {
        if (ref.rfind(name + "-", 0) == 0) {
          toRemove.push_back(attr == std::string("conditionref")
                                 ? policy::dit::conditions().child("cn", ref)
                                 : policy::dit::actions().child("cn", ref));
        }
      }
    }
  }
  directory_.remove(dn);
  for (const Dn& d : toRemove) directory_.remove(d);
  return true;
}

LdapResult RepositoryService::addContract(const policy::ContractSpec& contract) {
  const Dn dn = policy::dit::contracts().child("cn", contract.name);
  if (directory_.lookup(dn) != nullptr) directory_.remove(dn);
  return directory_.add(policy::toEntry(contract));
}

bool RepositoryService::removeContract(const std::string& name) {
  return directory_.remove(policy::dit::contracts().child("cn", name)) ==
         LdapResult::kSuccess;
}

std::optional<policy::ApplicationInfo> RepositoryService::findApplication(
    const std::string& name) const {
  const Entry* e = directory_.lookup(policy::dit::applications().child("cn", name));
  if (e == nullptr) return std::nullopt;
  return policy::applicationFromEntry(*e);
}

std::optional<policy::ExecutableInfo> RepositoryService::findExecutable(
    const std::string& name) const {
  const Entry* e = directory_.lookup(policy::dit::executables().child("cn", name));
  if (e == nullptr) return std::nullopt;
  return policy::executableFromEntry(*e);
}

std::optional<policy::SensorInfo> RepositoryService::findSensor(
    const std::string& id) const {
  const Entry* e = directory_.lookup(policy::dit::sensors().child("cn", id));
  if (e == nullptr) return std::nullopt;
  return policy::sensorFromEntry(*e);
}

std::optional<policy::UserRole> RepositoryService::findRole(
    const std::string& name) const {
  const Entry* e = directory_.lookup(policy::dit::roles().child("cn", name));
  if (e == nullptr) return std::nullopt;
  return policy::roleFromEntry(*e);
}

std::optional<policy::PolicySpec> RepositoryService::findPolicy(
    const std::string& name) const {
  const Entry* e = directory_.lookup(policy::dit::policies().child("cn", name));
  if (e == nullptr) return std::nullopt;
  return policy::policyFromEntry(*e, directory_);
}

std::optional<policy::ContractSpec> RepositoryService::findContract(
    const std::string& name) const {
  const Entry* e = directory_.lookup(policy::dit::contracts().child("cn", name));
  if (e == nullptr) return std::nullopt;
  return policy::contractFromEntry(*e);
}

std::vector<std::string> RepositoryService::contractNames() const {
  std::vector<std::string> out;
  for (const Entry* e :
       directory_.search(policy::dit::contracts(), SearchScope::kOneLevel,
                         Filter::parse("(objectClass=qosContract)"))) {
    out.push_back(e->firstValue("cn").value_or(""));
  }
  return out;
}

std::optional<policy::ContractSpec> RepositoryService::offeredContractFor(
    const std::string& executable, const std::string& application) const {
  std::optional<policy::ContractSpec> best;
  for (const Entry* e :
       directory_.search(policy::dit::contracts(), SearchScope::kOneLevel,
                         Filter::parse("(&(objectClass=qosContract)"
                                       "(!(enabled=FALSE)))"))) {
    policy::ContractSpec c = policy::contractFromEntry(*e);
    if (!c.hasOffer || c.executable != executable) continue;
    if (!c.application.empty() && c.application != application) continue;
    // Application-specific offers shadow wildcard ones; among equals the
    // directory's deterministic search order keeps the first.
    if (!best.has_value() ||
        (best->application.empty() && !c.application.empty())) {
      best = std::move(c);
    }
  }
  return best;
}

std::optional<policy::ContractSpec> RepositoryService::requestedContractFor(
    const std::string& application, const std::string& role) const {
  std::optional<policy::ContractSpec> best;
  const auto specificity = [](const policy::ContractSpec& c) {
    return (c.userRole.empty() ? 0 : 2) + (c.application.empty() ? 0 : 1);
  };
  for (const Entry* e :
       directory_.search(policy::dit::contracts(), SearchScope::kOneLevel,
                         Filter::parse("(&(objectClass=qosContract)"
                                       "(!(enabled=FALSE)))"))) {
    policy::ContractSpec c = policy::contractFromEntry(*e);
    if (!c.hasRequest) continue;
    if (!c.userRole.empty() && c.userRole != role) continue;
    if (!c.application.empty() && c.application != application) continue;
    if (!best.has_value() || specificity(c) > specificity(*best)) {
      best = std::move(c);
    }
  }
  return best;
}

std::vector<std::string> RepositoryService::policyNames() const {
  std::vector<std::string> out;
  for (const Entry* e :
       directory_.search(policy::dit::policies(), SearchScope::kOneLevel,
                         Filter::parse("(objectClass=qosPolicy)"))) {
    out.push_back(e->firstValue("cn").value_or(""));
  }
  return out;
}

std::vector<policy::PolicySpec> RepositoryService::policiesFor(
    const std::string& application, const std::string& executable,
    const std::string& role) const {
  static const Filter kEnabledPolicy =
      Filter::parse("(&(objectClass=qosPolicy)(!(enabled=FALSE)))");
  std::vector<policy::PolicySpec> out;
  for (const Entry* e : directory_.search(policy::dit::policies(),
                                          SearchScope::kOneLevel,
                                          Filter::matchAll())) {
    if (!appliesTo(*e, application, executable, role) ||
        !kEnabledPolicy.matches(*e)) {
      continue;
    }
    std::string key = e->dn().normalized();
    auto it = decoded_.find(key);
    if (it == decoded_.end()) {
      ++decodes_;
      it = decoded_
               .emplace(std::move(key), policy::policyFromEntry(*e, directory_))
               .first;
    }
    out.push_back(it->second);
  }
  return out;
}

ldapdir::LdifApplyStats RepositoryService::uploadLdif(const std::string& text) {
  return ldapdir::applyLdif(directory_, text);
}

std::string RepositoryService::exportLdif() const {
  return ldapdir::toLdif(directory_);
}

}  // namespace softqos::distribution
