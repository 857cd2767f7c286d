#include "faults/injector.hpp"

#include <string>
#include <utility>

#include "manager/domain_manager.hpp"
#include "manager/host_manager.hpp"
#include "net/node.hpp"

namespace softqos::faults {

namespace {
constexpr std::string_view kComponent = "fault-injector";
}  // namespace

FaultInjector::FaultInjector(sim::Simulation& simulation, net::Network& network)
    : sim_(simulation), net_(network), linkRandom_(sim_.stream("faults:link")) {}

void FaultInjector::registerHost(osim::Host& host) {
  hosts_[host.name()] = &host;
}

void FaultInjector::registerHostManager(const std::string& hostName,
                                        manager::QoSHostManager& hm) {
  hostManagers_[hostName] = &hm;
}

void FaultInjector::registerDomainManager(const std::string& seatHost,
                                          manager::QoSDomainManager& dm) {
  domainManagers_[seatHost] = &dm;
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events()) {
    scheduleEvent(armed_.emplace_back(event));
  }
}

void FaultInjector::scheduleEvent(const FaultEvent& event) {
  if (sim_.shardCount() == 1) {
    // Historical single-queue path: one event, shared link stream.
    sim_.at(event.at, [this, e = &event] { fire(*e); });
    return;
  }
  switch (event.kind) {
    case FaultEvent::Kind::kLinkCut:
    case FaultEvent::Kind::kLinkHeal:
    case FaultEvent::Kind::kLinkRestore:
    case FaultEvent::Kind::kLinkDegrade:
      scheduleLinkEvent(event);
      return;
    default: {
      // Host-affine faults (crash/restart/kill and the co-located daemons)
      // execute on the shard owning the target host.
      osim::Host* host = findHost(event.host);
      const sim::ShardId target = host != nullptr ? host->shard() : 0;
      sim_.postToShard(target, event.at, [this, e = &event] { fire(*e); });
      return;
    }
  }
}

void FaultInjector::scheduleLinkEvent(const FaultEvent& event) {
  net::NetNode* a = net_.nodeByName(event.nodeA);
  net::NetNode* b = net_.nodeByName(event.nodeB);
  net::LinkFaultProfile profile;  // kLinkHeal/kLinkRestore: clean profile
  if (event.kind == FaultEvent::Kind::kLinkCut) profile.down = true;
  if (event.kind == FaultEvent::Kind::kLinkDegrade) profile = event.profile;
  // Per-packet draws use per-direction streams in sharded mode: each channel
  // is polled only by the shard owning its source node, so directions must
  // not share mutable RNG state across a boundary.
  sim::RandomStream* randomAB = nullptr;
  sim::RandomStream* randomBA = nullptr;
  if (event.kind == FaultEvent::Kind::kLinkDegrade) {
    randomAB = directionStream(event.nodeA, event.nodeB);
    randomBA = directionStream(event.nodeB, event.nodeA);
  }
  if (a == nullptr || b == nullptr || a->shard() == b->shard()) {
    const sim::ShardId target = (a != nullptr && b != nullptr) ? a->shard() : 0;
    sim_.postToShard(target, event.at,
                     [this, e = &event, profile, randomAB, randomBA] {
                       applyLinkProfile(*e, profile, randomAB, randomBA);
                     });
    return;
  }
  // Endpoints on different shards: apply each direction on the shard owning
  // the channel's source; the A-side post does the accounting.
  sim_.postToShard(a->shard(), event.at,
                   [this, e = &event, profile, randomAB] {
                     applyLinkDirection(*e, profile, randomAB,
                                        /*reverse=*/false, /*account=*/true);
                   });
  sim_.postToShard(b->shard(), event.at,
                   [this, e = &event, profile, randomBA] {
                     applyLinkDirection(*e, profile, randomBA,
                                        /*reverse=*/true, /*account=*/false);
                   });
}

sim::RandomStream* FaultInjector::directionStream(const std::string& from,
                                                  const std::string& to) {
  const std::string key = from + ">" + to;
  auto it = linkStreamIndex_.find(key);
  if (it != linkStreamIndex_.end()) return &linkStreams_[it->second];
  linkStreams_.emplace_back(sim_.stream("faults:link:" + key));
  linkStreamIndex_.emplace(key, linkStreams_.size() - 1);
  return &linkStreams_.back();
}

osim::Host* FaultInjector::findHost(const std::string& name) {
  auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second;
}

void FaultInjector::applyLinkProfile(const FaultEvent& event,
                                     const net::LinkFaultProfile& profile,
                                     sim::RandomStream* randomAB,
                                     sim::RandomStream* randomBA) {
  net::NetNode* a = net_.nodeByName(event.nodeA);
  net::NetNode* b = net_.nodeByName(event.nodeB);
  net::Channel* ab =
      (a != nullptr && b != nullptr) ? net_.channel(a->id(), b->id()) : nullptr;
  net::Channel* ba =
      (a != nullptr && b != nullptr) ? net_.channel(b->id(), a->id()) : nullptr;
  if (ab == nullptr || ba == nullptr) {
    ++misses_;
    sim_.warn(std::string(kComponent), "no such link " + event.nodeA + "<->" +
                                           event.nodeB + " for " +
                                           faultKindName(event.kind));
    return;
  }
  ab->setFaultProfile(profile, randomAB);
  ba->setFaultProfile(profile, randomBA);
  ++injected_;
  sim_.warn(std::string(kComponent),
            std::string(faultKindName(event.kind)) + " " + event.nodeA +
                "<->" + event.nodeB);
}

void FaultInjector::applyLinkDirection(const FaultEvent& event,
                                       const net::LinkFaultProfile& profile,
                                       sim::RandomStream* random, bool reverse,
                                       bool account) {
  net::NetNode* a = net_.nodeByName(event.nodeA);
  net::NetNode* b = net_.nodeByName(event.nodeB);
  net::Channel* ch = nullptr;
  if (a != nullptr && b != nullptr) {
    ch = reverse ? net_.channel(b->id(), a->id())
                 : net_.channel(a->id(), b->id());
  }
  if (ch == nullptr) {
    if (account) {
      ++misses_;
      sim_.warn(std::string(kComponent),
                "no such link " + event.nodeA + "<->" + event.nodeB + " for " +
                    faultKindName(event.kind));
    }
    return;
  }
  ch->setFaultProfile(profile, random);
  if (account) {
    ++injected_;
    sim_.warn(std::string(kComponent),
              std::string(faultKindName(event.kind)) + " " + event.nodeA +
                  "<->" + event.nodeB);
  }
}

void FaultInjector::fire(const FaultEvent& event) {
  switch (event.kind) {
    case FaultEvent::Kind::kHostCrash: {
      osim::Host* host = findHost(event.host);
      if (host == nullptr || !host->crash()) {
        ++misses_;
        return;
      }
      // The machine takes its co-located daemons down with it.
      auto hm = hostManagers_.find(event.host);
      if (hm != hostManagers_.end()) hm->second->crash();
      auto dm = domainManagers_.find(event.host);
      if (dm != domainManagers_.end()) dm->second->crash();
      ++injected_;
      sim_.warn(std::string(kComponent), "host-crash " + event.host);
      return;
    }
    case FaultEvent::Kind::kHostRestart: {
      osim::Host* host = findHost(event.host);
      if (host == nullptr || !host->restart()) {
        ++misses_;
        return;
      }
      auto hm = hostManagers_.find(event.host);
      if (hm != hostManagers_.end()) hm->second->restartDaemon();
      auto dm = domainManagers_.find(event.host);
      if (dm != domainManagers_.end()) dm->second->restartDaemon();
      ++injected_;
      sim_.info(std::string(kComponent), "host-restart " + event.host);
      return;
    }
    case FaultEvent::Kind::kProcessKill: {
      osim::Host* host = findHost(event.host);
      if (host == nullptr || !host->kill(event.pid)) {
        ++misses_;
        return;
      }
      ++injected_;
      sim_.warn(std::string(kComponent), "process-kill " + event.host +
                                             " pid=" + std::to_string(event.pid));
      return;
    }
    case FaultEvent::Kind::kLinkCut: {
      net::LinkFaultProfile profile;
      profile.down = true;
      applyLinkProfile(event, profile, nullptr, nullptr);
      return;
    }
    case FaultEvent::Kind::kLinkHeal:
    case FaultEvent::Kind::kLinkRestore:
      applyLinkProfile(event, net::LinkFaultProfile{}, nullptr, nullptr);
      return;
    case FaultEvent::Kind::kLinkDegrade:
      applyLinkProfile(event, event.profile, &linkRandom_, &linkRandom_);
      return;
    case FaultEvent::Kind::kManagerCrash: {
      auto it = hostManagers_.find(event.host);
      if (it == hostManagers_.end() || !it->second->crash()) {
        ++misses_;
        return;
      }
      ++injected_;
      sim_.warn(std::string(kComponent), "manager-crash " + event.host);
      return;
    }
    case FaultEvent::Kind::kManagerRestart: {
      auto it = hostManagers_.find(event.host);
      if (it == hostManagers_.end() || !it->second->restartDaemon()) {
        ++misses_;
        return;
      }
      ++injected_;
      sim_.info(std::string(kComponent), "manager-restart " + event.host);
      return;
    }
    case FaultEvent::Kind::kDomainManagerCrash: {
      auto it = domainManagers_.find(event.host);
      if (it == domainManagers_.end() || !it->second->crash()) {
        ++misses_;
        return;
      }
      ++injected_;
      sim_.warn(std::string(kComponent), "dm-crash " + event.host);
      return;
    }
    case FaultEvent::Kind::kDomainManagerRestart: {
      auto it = domainManagers_.find(event.host);
      if (it == domainManagers_.end() || !it->second->restartDaemon()) {
        ++misses_;
        return;
      }
      ++injected_;
      sim_.info(std::string(kComponent), "dm-restart " + event.host);
      return;
    }
  }
}

}  // namespace softqos::faults
