#include "profiler.hpp"

#include <algorithm>

namespace perfbench {

using softqos::sim::SimTime;
using softqos::sim::TraceContext;

TraceContext KernelProfiler::beginTrace(SimTime now, std::string_view name,
                                        std::string_view component) {
  return inner_ != nullptr ? inner_->beginTrace(now, name, component)
                           : TraceContext{};
}

TraceContext KernelProfiler::beginSpan(SimTime now, const TraceContext& parent,
                                       std::string_view name,
                                       std::string_view component) {
  return inner_ != nullptr ? inner_->beginSpan(now, parent, name, component)
                           : TraceContext{};
}

void KernelProfiler::endSpan(SimTime now, const TraceContext& span) {
  if (inner_ != nullptr) inner_->endSpan(now, span);
}

void KernelProfiler::annotate(const TraceContext& span, std::string_view key,
                              std::string_view value) {
  if (inner_ != nullptr) inner_->annotate(span, key, value);
}

TraceContext KernelProfiler::instant(SimTime now, const TraceContext& parent,
                                     std::string_view name,
                                     std::string_view component) {
  return inner_ != nullptr ? inner_->instant(now, parent, name, component)
                           : TraceContext{};
}

void KernelProfiler::onEventExecuted(SimTime now, std::size_t depth,
                                     std::uint64_t wallNanos) {
  ++events_;
  callbackNanos_ += static_cast<double>(wallNanos);
  maxDepth_ = std::max<std::uint64_t>(maxDepth_, depth);
  callbackNs_.add(static_cast<double>(wallNanos));
  if (inner_ != nullptr) inner_->onEventExecuted(now, depth, wallNanos);
}

void KernelProfiler::recordProfile(std::string_view component,
                                   std::uint64_t wallNanos) {
  if (inner_ != nullptr) inner_->recordProfile(component, wallNanos);
}

}  // namespace perfbench
