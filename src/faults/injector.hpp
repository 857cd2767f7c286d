// FaultInjector: arms a FaultPlan against a live testbed, executing each
// scripted fault at its simulation-clock timestamp.
//
// Determinism contract: the injector schedules plan events through the
// simulation kernel (same ordering rules as every other event) and owns one
// named sim::RandomStream ("faults:link") that channels consult for
// per-packet loss/corruption draws. The stream is derived from the master
// seed independently of construction order, so identical (seed, plan) pairs
// replay byte-identical runs, and a run with no armed plan draws nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "faults/fault_plan.hpp"
#include "net/network.hpp"
#include "osim/host.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace softqos::manager {
class QoSHostManager;
class QoSDomainManager;
}  // namespace softqos::manager

namespace softqos::faults {

class FaultInjector {
 public:
  FaultInjector(sim::Simulation& simulation, net::Network& network);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Register targets the plan may reference. Host managers and the domain
  /// manager are keyed by the host they run on: crashing a host also crashes
  /// its co-located daemons (a machine going down takes its agents with it),
  /// and restarting it brings them back.
  void registerHost(osim::Host& host);
  void registerHostManager(const std::string& hostName,
                           manager::QoSHostManager& hm);
  void registerDomainManager(const std::string& seatHost,
                             manager::QoSDomainManager& dm);

  /// Schedule every event of `plan` on the simulation clock. May be called
  /// more than once (plans accumulate), but only between runs — arming
  /// resolves targets to their owning shards. Events referencing
  /// unregistered targets are counted in misses() and otherwise ignored at
  /// fire time. In a sharded simulation every event is posted to the shard
  /// owning its target (host faults to the host's shard; a link fault whose
  /// endpoints live on different shards is applied per direction, each on
  /// the channel owner's shard).
  void arm(const FaultPlan& plan);

  [[nodiscard]] std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// The stream backing per-packet loss/corruption draws (exposed for tests
  /// asserting replay determinism).
  [[nodiscard]] sim::RandomStream& linkRandom() { return linkRandom_; }

 private:
  /// `event` is an element of armed_: the scheduled closures keep its
  /// address, not a copy.
  void scheduleEvent(const FaultEvent& event);
  void scheduleLinkEvent(const FaultEvent& event);
  void fire(const FaultEvent& event);
  void applyLinkProfile(const FaultEvent& event,
                        const net::LinkFaultProfile& profile,
                        sim::RandomStream* randomAB,
                        sim::RandomStream* randomBA);
  /// Apply one direction of a link fault (reverse = the B->A channel);
  /// `account` selects the single direction that records injected/misses so
  /// a split cross-shard event still counts once.
  void applyLinkDirection(const FaultEvent& event,
                          const net::LinkFaultProfile& profile,
                          sim::RandomStream* random, bool reverse,
                          bool account);
  /// Seeded per-direction stream for sharded runs ("faults:link:a>b");
  /// created at arm time so firing never mutates shared state.
  sim::RandomStream* directionStream(const std::string& from,
                                     const std::string& to);
  [[nodiscard]] osim::Host* findHost(const std::string& name);

  sim::Simulation& sim_;
  net::Network& net_;
  sim::RandomStream linkRandom_;
  std::map<std::string, osim::Host*> hosts_;
  std::map<std::string, manager::QoSHostManager*> hostManagers_;
  std::map<std::string, manager::QoSDomainManager*> domainManagers_;
  std::deque<FaultEvent> armed_;  // stable addresses
  std::deque<sim::RandomStream> linkStreams_;  // stable addresses
  std::map<std::string, std::size_t> linkStreamIndex_;
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace softqos::faults
