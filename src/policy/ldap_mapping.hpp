// Mapping between the information model and LDAP entries (Section 7: "Each
// of the classes defined in the information model were mapped to LDAP
// classes"), plus the DIT layout used by the Repository Service.
//
// Limitation (faithful to the paper's model): policies whose condition
// expression is not a flat conjunction/disjunction cannot be stored — the
// policy class carries a single combinator attribute. Such policies remain
// usable in memory; mapping them throws MappingError.
#pragma once

#include <stdexcept>
#include <vector>

#include "ldapdir/directory.hpp"
#include "ldapdir/entry.hpp"
#include "policy/model.hpp"
#include "policy/qos_contract.hpp"

namespace softqos::policy {

class MappingError : public std::runtime_error {
 public:
  explicit MappingError(const std::string& message)
      : std::runtime_error(message) {}
};

/// The directory layout (all under the repository suffix, default o=uwo).
/// Each DN is parsed once, on first use.
namespace dit {
const ldapdir::Dn& root();
const ldapdir::Dn& applications();
const ldapdir::Dn& executables();
const ldapdir::Dn& sensors();
const ldapdir::Dn& conditions();
const ldapdir::Dn& actions();
const ldapdir::Dn& policies();
const ldapdir::Dn& roles();
const ldapdir::Dn& contracts();
/// The container entries themselves (for bootstrapping a repository).
std::vector<ldapdir::Entry> containerEntries();
}  // namespace dit

ldapdir::Entry toEntry(const ApplicationInfo& app);
ldapdir::Entry toEntry(const ExecutableInfo& exec);
ldapdir::Entry toEntry(const SensorInfo& sensor);
ldapdir::Entry toEntry(const UserRole& role);
ldapdir::Entry toEntry(const ContractSpec& contract);

ApplicationInfo applicationFromEntry(const ldapdir::Entry& entry);
ExecutableInfo executableFromEntry(const ldapdir::Entry& entry);
SensorInfo sensorFromEntry(const ldapdir::Entry& entry);
UserRole roleFromEntry(const ldapdir::Entry& entry);
ContractSpec contractFromEntry(const ldapdir::Entry& entry);

/// A policy maps to one qosPolicy entry plus one qosCondition / qosAction
/// entry per inline condition/action (reusable ones — with a non-empty id —
/// are referenced and assumed to exist). Returned in parent-safe order.
std::vector<ldapdir::Entry> policyToEntries(const PolicySpec& spec);

/// Rebuild a policy from its entry, resolving condition/action references
/// through the directory. Throws MappingError on dangling references.
PolicySpec policyFromEntry(const ldapdir::Entry& entry,
                           const ldapdir::Directory& directory);

ldapdir::Entry conditionToEntry(const PolicyCondition& cond,
                                const std::string& cn);
PolicyCondition conditionFromEntry(const ldapdir::Entry& entry);
ldapdir::Entry actionToEntry(const PolicyAction& action, const std::string& cn);
PolicyAction actionFromEntry(const ldapdir::Entry& entry);

}  // namespace softqos::policy
