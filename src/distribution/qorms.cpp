#include "distribution/qorms.hpp"

#include "manager/default_rules.hpp"

namespace softqos::distribution {

Qorms::Qorms(sim::Simulation& simulation, net::Network& network)
    : sim_(simulation),
      network_(network),
      repository_(/*enforceSchema=*/true),
      agent_(simulation, repository_),
      admin_(repository_) {}

manager::QoSHostManager& Qorms::createHostManager(
    osim::Host& host, manager::HostManagerConfig config) {
  hostManagers_.push_back(std::make_unique<manager::QoSHostManager>(
      sim_, host, &network_, std::move(config)));
  return *hostManagers_.back();
}

manager::QoSDomainManager& Qorms::createDomainManager(
    osim::Host& seat, const std::string& name,
    const std::vector<std::string>& hosts,
    manager::DomainManagerConfig config) {
  domainManagers_.push_back(std::make_unique<manager::QoSDomainManager>(
      sim_, seat, network_, name, config));
  manager::QoSDomainManager& dm = *domainManagers_.back();
  for (const std::string& h : hosts) dm.addManagedHost(h);
  return dm;
}

std::vector<manager::QoSHostManager*> Qorms::hostManagers() {
  std::vector<manager::QoSHostManager*> out;
  out.reserve(hostManagers_.size());
  for (const auto& hm : hostManagers_) out.push_back(hm.get());
  return out;
}

std::vector<manager::QoSDomainManager*> Qorms::domainManagers() {
  std::vector<manager::QoSDomainManager*> out;
  out.reserve(domainManagers_.size());
  for (const auto& dm : domainManagers_) out.push_back(dm.get());
  return out;
}

manager::QoSHostManager* Qorms::hostManagerFor(const std::string& hostName) {
  for (const auto& hm : hostManagers_) {
    if (hm->host().name() == hostName) return hm.get();
  }
  return nullptr;
}

void Qorms::distributeHostRules(const std::string& ruleText) {
  for (const auto& hm : hostManagers_) hm->loadRuleText(ruleText);
}

void Qorms::distributeDomainRules(const std::string& ruleText) {
  for (const auto& dm : domainManagers_) dm->loadRuleText(ruleText);
}

void Qorms::enableContractPlane(osim::Host& seat, int port) {
  agent_.enableContractPlane();
  agent_.bindRpc(network_, seat, port);
  distributeHostRules(manager::contractHostRules());
}

}  // namespace softqos::distribution
