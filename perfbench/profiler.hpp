// The benchmark's kernel profiler: a SpanObserver that only measures. It
// records the wall ns and queue depth the serial kernel reports through
// onEventExecuted, and forwards every span call to an optional inner
// observer (the city's TraceSampler on the chaos workload). Without an
// inner observer it returns invalid contexts, so no span is minted and no
// wire frame changes: a profiled run must replay the unprofiled run's
// simulated outputs exactly.
#pragma once

#include <cstdint>

#include "sim/metrics.hpp"
#include "sim/simulation.hpp"
#include "sim/span.hpp"

namespace perfbench {

class KernelProfiler final : public softqos::sim::SpanObserver {
 public:
  void setInner(softqos::sim::SpanObserver* inner) { inner_ = inner; }

  softqos::sim::TraceContext beginTrace(softqos::sim::SimTime now,
                                        std::string_view name,
                                        std::string_view component) override;
  softqos::sim::TraceContext beginSpan(softqos::sim::SimTime now,
                                       const softqos::sim::TraceContext& parent,
                                       std::string_view name,
                                       std::string_view component) override;
  void endSpan(softqos::sim::SimTime now,
               const softqos::sim::TraceContext& span) override;
  void annotate(const softqos::sim::TraceContext& span, std::string_view key,
                std::string_view value) override;
  softqos::sim::TraceContext instant(softqos::sim::SimTime now,
                                     const softqos::sim::TraceContext& parent,
                                     std::string_view name,
                                     std::string_view component) override;
  void onEventExecuted(softqos::sim::SimTime now, std::size_t depth,
                       std::uint64_t wallNanos) override;
  void recordProfile(std::string_view component,
                     std::uint64_t wallNanos) override;

  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] double callbackNanos() const { return callbackNanos_; }
  [[nodiscard]] std::uint64_t maxDepth() const { return maxDepth_; }
  [[nodiscard]] const softqos::sim::Histogram& callbackHistogram() const {
    return callbackNs_;
  }

 private:
  softqos::sim::SpanObserver* inner_ = nullptr;
  std::uint64_t events_ = 0;
  double callbackNanos_ = 0;
  std::uint64_t maxDepth_ = 0;
  softqos::sim::Histogram callbackNs_;
};

/// Attaches `profiler` to `sim` for its lifetime, wrapping whatever observer
/// was attached before, and restores that observer on destruction (before
/// the wrapped observer's owner goes away).
class ProfilerAttachment {
 public:
  ProfilerAttachment(softqos::sim::Simulation& sim, KernelProfiler& profiler)
      : sim_(sim), previous_(sim.observer()) {
    profiler.setInner(previous_);
    sim.setObserver(&profiler);
  }
  ~ProfilerAttachment() { sim_.setObserver(previous_); }

  ProfilerAttachment(const ProfilerAttachment&) = delete;
  ProfilerAttachment& operator=(const ProfilerAttachment&) = delete;

 private:
  softqos::sim::Simulation& sim_;
  softqos::sim::SpanObserver* previous_;
};

}  // namespace perfbench
