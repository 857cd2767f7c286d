// The Repository Service (Section 6.2): storage and retrieval of the
// information-model data, backed by the LDAP-style directory.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ldapdir/directory.hpp"
#include "ldapdir/ldif.hpp"
#include "policy/ldap_mapping.hpp"
#include "policy/model.hpp"

namespace softqos::distribution {

class RepositoryService {
 public:
  explicit RepositoryService(bool enforceSchema = true);

  RepositoryService(const RepositoryService&) = delete;
  RepositoryService& operator=(const RepositoryService&) = delete;

  [[nodiscard]] ldapdir::Directory& directory() { return directory_; }
  [[nodiscard]] const ldapdir::Directory& directory() const { return directory_; }

  // ---- Model CRUD ----
  ldapdir::LdapResult addApplication(const policy::ApplicationInfo& app);
  ldapdir::LdapResult addExecutable(const policy::ExecutableInfo& exec);
  ldapdir::LdapResult addSensor(const policy::SensorInfo& sensor);
  ldapdir::LdapResult addRole(const policy::UserRole& role);

  /// Store a policy (and its inline condition/action entries). Fails without
  /// side effects if the policy entry already exists.
  ldapdir::LdapResult addPolicy(const policy::PolicySpec& spec);
  bool removePolicy(const std::string& name);

  /// Store a QoS contract (offered/requested sets under ou=contracts).
  /// Re-adding an existing name replaces the entry (contracts are tuned at
  /// run time; the policy agent re-runs admission on refresh).
  ldapdir::LdapResult addContract(const policy::ContractSpec& contract);
  bool removeContract(const std::string& name);

  [[nodiscard]] std::optional<policy::ApplicationInfo> findApplication(
      const std::string& name) const;
  [[nodiscard]] std::optional<policy::ExecutableInfo> findExecutable(
      const std::string& name) const;
  [[nodiscard]] std::optional<policy::SensorInfo> findSensor(
      const std::string& id) const;
  [[nodiscard]] std::optional<policy::UserRole> findRole(
      const std::string& name) const;
  [[nodiscard]] std::optional<policy::PolicySpec> findPolicy(
      const std::string& name) const;
  [[nodiscard]] std::optional<policy::ContractSpec> findContract(
      const std::string& name) const;

  [[nodiscard]] std::vector<std::string> policyNames() const;
  [[nodiscard]] std::vector<std::string> contractNames() const;

  /// Policies applicable to a registering process (Section 6.2): enabled,
  /// matching executable (case-insensitively), application (exact or
  /// wildcard) and user role (role-specific policies apply only to that
  /// role; role-less policies apply to everyone), in directory order. Only
  /// matching entries are decoded; decoded policies are cached until their
  /// entry, or any condition or action entry, changes. Throws MappingError
  /// when a matching policy has a dangling reference.
  [[nodiscard]] std::vector<policy::PolicySpec> policiesFor(
      const std::string& application, const std::string& executable,
      const std::string& role) const;

  /// Policy entries decoded by policiesFor so far (cache misses).
  [[nodiscard]] std::uint64_t decodes() const { return decodes_; }

  /// The offered QoS for a registering process: the enabled offering
  /// contract matching its executable (application-specific entries win
  /// over wildcard ones). nullopt: the executable offers no contract.
  [[nodiscard]] std::optional<policy::ContractSpec> offeredContractFor(
      const std::string& executable, const std::string& application) const;

  /// The requested QoS applicable to a registration: the enabled requesting
  /// contract matching its role (role-specific entries win over role-less
  /// ones; application likewise). nullopt: nothing requested — admission
  /// control does not apply.
  [[nodiscard]] std::optional<policy::ContractSpec> requestedContractFor(
      const std::string& application, const std::string& role) const;

  // ---- LDIF interchange ----
  ldapdir::LdifApplyStats uploadLdif(const std::string& text);
  [[nodiscard]] std::string exportLdif() const;

 private:
  ldapdir::Directory directory_;
  /// policiesFor's decoded policies by normalized DN. Lookups fill it, so
  /// it mutates under const; one thread owns the repository at a time.
  mutable std::map<std::string, policy::PolicySpec> decoded_;
  mutable std::uint64_t decodes_ = 0;
};

}  // namespace softqos::distribution
