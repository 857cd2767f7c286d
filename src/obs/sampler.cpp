#include "obs/sampler.hpp"

#include <algorithm>
#include <cassert>

#include "sim/random.hpp"

namespace softqos::obs {

namespace {

// Provisional ids: (1<<48) | shard<<40 | seq. Every id lands in
// [2^48, 2*2^48), i.e. exactly 15 decimal digits, so serialized contexts
// have the same byte length at every shard count (payload length feeds the
// simulated transmission time).
constexpr std::uint64_t kIdBase = 1ull << 48;
constexpr std::uint64_t kSeqBits = 40;
constexpr std::uint64_t kSeqMask = (1ull << kSeqBits) - 1;

}  // namespace

TraceSampler::TraceSampler(sim::Simulation& sim, SamplerConfig config)
    : sim_(&sim), seed_(sim.seed()), config_(std::move(config)) {
  buffers_.resize(256);  // the kernel's shard-count cap
  droppedDuration_ = stats_.histogramHandle("sampler.dropped_duration_us");
  sim.setObserver(this);
}

TraceSampler::~TraceSampler() { detach(); }

void TraceSampler::detach() {
  if (sim_ != nullptr && sim_->observer() == this) sim_->setObserver(nullptr);
  sim_ = nullptr;
}

TraceSampler::ShardBuf& TraceSampler::buf() {
  auto& slot = buffers_[sim_->currentShard()];
  // Only the worker that owns this shard ever touches the slot, so the lazy
  // allocation needs no lock.
  if (!slot) slot = std::make_unique<ShardBuf>();
  return *slot;
}

std::uint64_t TraceSampler::mintId(ShardBuf& b) {
  const std::uint64_t seq = b.nextSeq++;
  assert(seq <= kSeqMask && "per-shard span sequence overflow");
  return kIdBase | (static_cast<std::uint64_t>(sim_->currentShard())
                    << kSeqBits) |
         (seq & kSeqMask);
}

void TraceSampler::push(Rec rec) {
  ShardBuf& b = buf();
  if (b.recs.size() >= config_.maxRecordsPerShard) {
    ++b.dropped;
    return;
  }
  rec.shard = sim_->currentShard();
  rec.seq = b.nextSeq++;
  b.recs.push_back(std::move(rec));
}

sim::TraceContext TraceSampler::beginTrace(sim::SimTime now,
                                           std::string_view name,
                                           std::string_view component) {
  ShardBuf& b = buf();
  const std::uint64_t id = mintId(b);
  Rec rec;
  rec.when = now;
  rec.op = Op::kBegin;
  rec.traceId = id;
  rec.spanId = id;
  rec.a = std::string(name);
  rec.b = std::string(component);
  push(std::move(rec));
  return sim::TraceContext{id, id, 0};
}

sim::TraceContext TraceSampler::beginSpan(sim::SimTime now,
                                          const sim::TraceContext& parent,
                                          std::string_view name,
                                          std::string_view component) {
  if (!parent.valid()) return beginTrace(now, name, component);
  ShardBuf& b = buf();
  const std::uint64_t id = mintId(b);
  Rec rec;
  rec.when = now;
  rec.op = Op::kBegin;
  rec.traceId = parent.traceId;
  rec.spanId = id;
  rec.parentSpanId = parent.spanId;
  rec.a = std::string(name);
  rec.b = std::string(component);
  push(std::move(rec));
  return sim::TraceContext{parent.traceId, id, parent.spanId};
}

void TraceSampler::endSpan(sim::SimTime now, const sim::TraceContext& span) {
  if (!span.valid()) return;
  Rec rec;
  rec.when = now;
  rec.op = Op::kEnd;
  rec.traceId = span.traceId;
  rec.spanId = span.spanId;
  push(std::move(rec));
}

void TraceSampler::annotate(const sim::TraceContext& span, std::string_view key,
                            std::string_view value) {
  if (!span.valid()) return;
  Rec rec;
  rec.when = sim_->now();
  rec.op = Op::kAnnotate;
  rec.traceId = span.traceId;
  rec.spanId = span.spanId;
  rec.a = std::string(key);
  rec.b = std::string(value);
  push(std::move(rec));
}

sim::TraceContext TraceSampler::instant(sim::SimTime now,
                                        const sim::TraceContext& parent,
                                        std::string_view name,
                                        std::string_view component) {
  const sim::TraceContext ctx = beginSpan(now, parent, name, component);
  endSpan(now, ctx);
  return ctx;
}

bool TraceSampler::traceKeyLess(const SampledTrace& x, const SampledTrace& y) {
  if (x.rootStart != y.rootStart) return x.rootStart < y.rootStart;
  if (x.rootName != y.rootName) return x.rootName < y.rootName;
  if (x.rootComponent != y.rootComponent) {
    return x.rootComponent < y.rootComponent;
  }
  return x.provisionalTraceId < y.provisionalTraceId;
}

void TraceSampler::ingest(Rec& rec) {
  auto it = pending_.find(rec.traceId);
  if (it == pending_.end()) {
    if (rec.op == Op::kBegin && rec.spanId == rec.traceId) {
      Pending p;
      p.trace.provisionalTraceId = rec.traceId;
      p.trace.rootStart = rec.when;
      p.trace.rootName = rec.a;
      p.trace.rootComponent = rec.b;
      p.sawRoot = true;
      ++totalTraces_;
      it = pending_.emplace(rec.traceId, std::move(p)).first;
    } else {
      // The trace was evicted from the pending set (or its root record was
      // lost to a full buffer): this record has no home.
      ++orphanRecords_;
      return;
    }
  }
  Pending& p = it->second;
  switch (rec.op) {
    case Op::kBegin: {
      ++totalSpans_;
      SampledSpan span;
      span.spanId = rec.spanId;
      span.parentSpanId = rec.parentSpanId;
      span.start = rec.when;
      span.name = std::move(rec.a);
      span.component = std::move(rec.b);
      if (p.retainReason.empty()) {
        for (const std::string& prefix : config_.retainNamePrefixes) {
          if (span.name.rfind(prefix, 0) == 0) {
            p.retainReason = "trigger:" + prefix;
            break;
          }
        }
      }
      p.spanIndex.emplace(span.spanId, p.trace.spans.size());
      p.trace.spans.push_back(std::move(span));
      ++p.openSpans;
      break;
    }
    case Op::kEnd: {
      const auto si = p.spanIndex.find(rec.spanId);
      if (si == p.spanIndex.end()) {
        ++orphanRecords_;
        return;
      }
      SampledSpan& span = p.trace.spans[si->second];
      if (!span.open()) return;  // double close; first one wins
      span.end = rec.when;
      --p.openSpans;
      if (rec.spanId == rec.traceId) {
        p.rootClosed = true;
        p.trace.rootEnd = rec.when;
      }
      break;
    }
    case Op::kAnnotate: {
      const auto si = p.spanIndex.find(rec.spanId);
      if (si == p.spanIndex.end()) {
        ++orphanRecords_;
        return;
      }
      if (rec.a == kRetainKey && p.retainReason.empty()) {
        p.retainReason = "mark:" + rec.b;
      }
      p.trace.spans[si->second].annotations.emplace_back(std::move(rec.a),
                                                         std::move(rec.b));
      break;
    }
  }
}

void TraceSampler::flush() {
  std::vector<Rec> all;
  for (auto& slot : buffers_) {
    if (!slot || slot->recs.empty()) continue;
    all.insert(all.end(), std::make_move_iterator(slot->recs.begin()),
               std::make_move_iterator(slot->recs.end()));
    slot->recs.clear();
  }
  // The kernel's cross-shard mail tie-break: (when, shard, seq). Within one
  // trace this is causal order (cross-shard hops cost at least the
  // lookahead, so same-time same-trace records share a shard).
  std::sort(all.begin(), all.end(), [](const Rec& x, const Rec& y) {
    if (x.when != y.when) return x.when < y.when;
    if (x.shard != y.shard) return x.shard < y.shard;
    return x.seq < y.seq;
  });
  for (Rec& rec : all) ingest(rec);

  // Resolve completed traces in shard-invariant key order so retention
  // bookkeeping (reservoir churn, retained-cap eviction) replays
  // identically at any shard/worker count.
  std::vector<std::uint64_t> done;
  for (const auto& [id, p] : pending_) {
    if (!p.rootClosed || p.openSpans > 0) continue;
    // Linger after the root close so late asynchronous spans (queued
    // cross-shard work finishing under a cleared episode) join the tree.
    if (sim_ != nullptr && config_.completionLinger > 0 &&
        sim_->now() - p.trace.rootEnd < config_.completionLinger) {
      continue;
    }
    done.push_back(id);
  }
  std::vector<Pending> completed;
  completed.reserve(done.size());
  for (const std::uint64_t id : done) {
    auto node = pending_.extract(id);
    completed.push_back(std::move(node.mapped()));
  }
  std::sort(completed.begin(), completed.end(),
            [](const Pending& x, const Pending& y) {
              return traceKeyLess(x.trace, y.trace);
            });
  for (Pending& p : completed) resolve(std::move(p), /*complete=*/true);

  enforcePendingCap();
  enforceRetainedCap();
  canonicalDirty_ = true;
}

void TraceSampler::finalFlush() {
  flush();
  std::vector<Pending> open;
  open.reserve(pending_.size());
  for (auto& [id, p] : pending_) open.push_back(std::move(p));
  pending_.clear();
  std::sort(open.begin(), open.end(), [](const Pending& x, const Pending& y) {
    return traceKeyLess(x.trace, y.trace);
  });
  for (Pending& p : open) {
    // Traces still here only because of the completion linger are complete;
    // genuinely open ones resolve as shutdown artifacts.
    const bool complete = p.rootClosed && p.openSpans <= 0;
    resolve(std::move(p), complete);
  }
  enforceRetainedCap();
  canonicalDirty_ = true;
}

void TraceSampler::resolve(Pending&& pending, bool complete) {
  SampledTrace t = std::move(pending.trace);
  t.complete = complete && pending.rootClosed;
  if (!pending.retainReason.empty()) {
    retain(std::move(t), std::move(pending.retainReason));
    return;
  }
  if (t.complete && config_.slowThreshold > 0 &&
      t.rootDuration() >= config_.slowThreshold) {
    retain(std::move(t), "slow");
    return;
  }
  if (config_.baselineProbability > 0.0) {
    // Per-trace seeded draw keyed by the shard-invariant trace key: the
    // decision depends on neither processing order nor shard count.
    sim::RandomStream draw(seed_, "obs:sampler:" + t.rootName + "|" +
                                      t.rootComponent + "|" +
                                      std::to_string(t.rootStart));
    if (draw.uniform01() < config_.baselineProbability) {
      retain(std::move(t), "baseline");
      return;
    }
  }
  if (t.complete && config_.slowestReservoir > 0) {
    // Streaming slowest-K under a total order: slower first, key as the
    // tie-break. The surviving set equals the true top-K of everything
    // offered, independent of offer order.
    const auto slower = [](const SampledTrace& x, const SampledTrace& y) {
      if (x.rootDuration() != y.rootDuration()) {
        return x.rootDuration() > y.rootDuration();
      }
      return traceKeyLess(x, y);
    };
    if (reservoir_.size() < config_.slowestReservoir ||
        slower(t, reservoir_.back())) {
      t.reason = "reservoir";
      const auto pos =
          std::upper_bound(reservoir_.begin(), reservoir_.end(), t, slower);
      retainedSpans_ += t.spans.size();
      ++retainedCount_;
      reservoir_.insert(pos, std::move(t));
      if (reservoir_.size() > config_.slowestReservoir) {
        SampledTrace evicted = std::move(reservoir_.back());
        reservoir_.pop_back();
        retainedSpans_ -= evicted.spans.size();
        --retainedCount_;
        ++reservoirEvictions_;
        dropFold(evicted);
      }
      return;
    }
  }
  dropFold(t);
}

void TraceSampler::retain(SampledTrace&& trace, std::string reason) {
  trace.reason = std::move(reason);
  retainedSpans_ += trace.spans.size();
  ++retainedCount_;
  stats_.count("sampler.retained." + trace.reason);
  retained_.push_back(std::move(trace));
}

void TraceSampler::dropFold(const SampledTrace& trace) {
  ++droppedTraces_;
  const auto duration = static_cast<double>(trace.rootDuration());
  droppedDuration_.record(duration);
  stats_.observe("sampler.dropped." + trace.rootName + "_us", duration);
}

void TraceSampler::enforcePendingCap() {
  while (pending_.size() > config_.maxPendingTraces) {
    auto oldest = pending_.begin();
    for (auto it = std::next(pending_.begin()); it != pending_.end(); ++it) {
      if (traceKeyLess(it->second.trace, oldest->second.trace)) oldest = it;
    }
    Pending p = std::move(oldest->second);
    pending_.erase(oldest);
    ++evictedPending_;
    // The eviction still honors triggers/marks that already fired, so a
    // fault trace under memory pressure is kept (flagged incomplete)
    // rather than silently lost.
    resolve(std::move(p), /*complete=*/false);
  }
}

void TraceSampler::enforceRetainedCap() {
  if (config_.maxRetainedSpans == 0) return;
  while (retainedSpans_ > config_.maxRetainedSpans && !retained_.empty()) {
    SampledTrace evicted = std::move(retained_.front());
    retained_.pop_front();
    retainedSpans_ -= evicted.spans.size();
    --retainedCount_;
    ++evictedRetained_;
  }
}

std::vector<const SampledTrace*> TraceSampler::retained() const {
  std::vector<const SampledTrace*> out;
  out.reserve(retained_.size() + reservoir_.size());
  for (const SampledTrace& t : retained_) out.push_back(&t);
  for (const SampledTrace& t : reservoir_) out.push_back(&t);
  return out;
}

void TraceSampler::rebuildCanonical() const {
  canonicalOrder_ = retained();
  std::sort(canonicalOrder_.begin(), canonicalOrder_.end(),
            [](const SampledTrace* x, const SampledTrace* y) {
              return traceKeyLess(*x, *y);
            });
  canonical_.clear();
  std::uint64_t next = 1;
  for (const SampledTrace* t : canonicalOrder_) {
    canonical_.emplace(t->provisionalTraceId, next++);
  }
  canonicalDirty_ = false;
}

const std::vector<const SampledTrace*>& TraceSampler::canonical() const {
  if (canonicalDirty_) rebuildCanonical();
  return canonicalOrder_;
}

std::optional<std::uint64_t> TraceSampler::canonicalTraceId(
    std::uint64_t provisionalTraceId) const {
  if (canonicalDirty_) rebuildCanonical();
  const auto it = canonical_.find(provisionalTraceId);
  if (it == canonical_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t TraceSampler::droppedRecords() const {
  std::uint64_t total = 0;
  for (const auto& slot : buffers_) {
    if (slot) total += slot->dropped;
  }
  return total;
}

}  // namespace softqos::obs
