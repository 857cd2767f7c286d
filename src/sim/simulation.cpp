#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace softqos::sim {

namespace {

constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();

/// Reusable N-party barrier; the last arriver runs a completion function
/// under the barrier mutex before releasing the others, which gives the
/// windowed round its two global synchronization points (min-reduction and
/// end-of-window) with plain mutex/condvar semantics — no atomics to reason
/// about under TSan, and no spinning on oversubscribed machines.
class WindowBarrier {
 public:
  explicit WindowBarrier(unsigned parties) : parties_(parties) {}

  template <typename Completion>
  void arrive(Completion&& completion) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ == parties_) {
      arrived_ = 0;
      completion();
      ++phase_;
      cv_.notify_all();
    } else {
      const std::uint64_t phase = phase_;
      cv_.wait(lock, [&] { return phase_ != phase; });
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  const unsigned parties_;
  unsigned arrived_ = 0;
  std::uint64_t phase_ = 0;
};

/// Which shard the calling thread is executing during a windowed run. Only
/// consulted while Simulation::threadedRun_ is set.
struct TlsCursor {
  const void* sim = nullptr;
  void* shard = nullptr;
};
thread_local TlsCursor tlsCursor;

/// Invoke a taken event's callback where it lies in its slot. A throwing
/// callback still completes its fire, so a one-shot's slot is released and
/// the queue's size() stays right; the exception then propagates.
void invokeInPlace(EventQueue& queue, const EventQueue::Firing& f) {
  try {
    f.cb();
  } catch (...) {
    queue.finishFire(f);
    throw;
  }
}

}  // namespace

Simulation::Simulation(std::uint64_t seed) : seed_(seed) {
  auto s = std::make_unique<Shard>();
  s->id = 0;
  shard0_ = s.get();
  activeShard_ = s.get();
  shards_.push_back(std::move(s));
}

Simulation::~Simulation() = default;

Simulation::Shard& Simulation::cur() const {
  if (threadedRun_ && tlsCursor.sim == this && tlsCursor.shard != nullptr) {
    return *static_cast<Shard*>(tlsCursor.shard);
  }
  return *activeShard_;
}

EventId Simulation::after(SimDuration delay, EventQueue::Callback&& cb) {
  if (delay < 0) throw std::invalid_argument("Simulation::after: negative delay");
  Shard& s = cur();
  return s.queue.schedule(s.now + delay, std::move(cb));
}

EventId Simulation::at(SimTime when, EventQueue::Callback&& cb) {
  Shard& s = cur();
  if (when < s.now) throw std::invalid_argument("Simulation::at: time in the past");
  return s.queue.schedule(when, std::move(cb));
}

EventId Simulation::every(SimDuration period, EventQueue::Callback&& cb) {
  if (period <= 0) {
    throw std::invalid_argument("Simulation::every: period must be positive");
  }
  Shard& s = cur();
  return s.queue.schedulePeriodic(s.now + period, period, std::move(cb));
}

bool Simulation::reschedule(EventId id, SimDuration period) {
  if (period <= 0) {
    throw std::invalid_argument("Simulation::reschedule: period must be positive");
  }
  const ShardId tag = EventQueue::idShardTag(id);
  if (tag >= shards_.size()) return false;
  Shard& s = *shards_[tag];
  return s.queue.reschedulePeriodic(id, s.now, period);
}

bool Simulation::cancel(EventId id) {
  const ShardId tag = EventQueue::idShardTag(id);
  if (tag >= shards_.size()) return false;
  return shards_[tag]->queue.cancel(id);
}

void Simulation::configureParallel(const ParallelConfig& config) {
  const unsigned shards = config.shards();
  if (config.threads == 0 || config.shardsPerThread == 0) {
    throw std::invalid_argument(
        "configureParallel: threads and shardsPerThread must be positive");
  }
  if (shards > 256) {
    throw std::invalid_argument(
        "configureParallel: at most 256 shards (ids carry an 8-bit tag)");
  }
  if (shards_.size() != 1 || shard0_->executed != 0) {
    throw std::logic_error(
        "configureParallel: must be called once, before any event executes");
  }
  config_ = config;
  for (unsigned i = 1; i < shards; ++i) {
    auto s = std::make_unique<Shard>();
    s->id = static_cast<ShardId>(i);
    s->queue.setShardTag(static_cast<std::uint8_t>(i));
    s->registry = std::make_unique<MetricRegistry>();
    shards_.push_back(std::move(s));
  }
}

MetricRegistry& Simulation::shardMetrics(ShardId shard) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("shardMetrics: no such shard");
  }
  return registryFor(*shards_[shard]);
}

EventId Simulation::postToShard(ShardId target, SimTime when,
                                EventQueue::Callback&& cb) {
  if (target >= shards_.size()) {
    throw std::out_of_range("postToShard: no such shard");
  }
  Shard& from = cur();
  Shard& to = *shards_[target];
  if (&to == &from) return to.queue.schedule(when, std::move(cb));
  std::lock_guard<std::mutex> lock(to.mailMutex);
  to.mailbox.emplace_back(when, from.id, from.outSeq++, std::move(cb));
  return kInvalidEvent;
}

void Simulation::executeOne() {
  Shard& shard = *shard0_;
  const EventQueue::Firing f = shard.queue.beginFire();
  assert(f.when >= shard.now && "event queue produced a time in the past");
  shard.now = f.when;
  if (observer_ == nullptr) {
    invokeInPlace(shard.queue, f);
  } else {
    // Kernel profiling: queue depth at dispatch plus the callback's
    // wall-clock cost. Only the observed path reads the host clock.
    const std::size_t depth = shard.queue.size();
    const auto start = std::chrono::steady_clock::now();
    invokeInPlace(shard.queue, f);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (observer_ != nullptr) {  // the callback may have detached it
      observer_->onEventExecuted(
          shard.now, depth,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
  }
  ++shard.executed;
  shard.queue.finishFire(f);
}

std::uint64_t Simulation::runSerial(SimTime until, bool bounded) {
  Shard& shard = *shard0_;
  std::uint64_t executed = 0;
  while (!shard.queue.empty() &&
         (!bounded || shard.queue.nextTime() <= until)) {
    executeOne();
    ++executed;
  }
  if (bounded && shard.now < until) shard.now = until;
  return executed;
}

void Simulation::validateWindowedRun() const {
  if (lookahead_ <= 0) {
    throw std::logic_error(
        "sharded run requires a positive lookahead (setLookahead, typically "
        "from Network::minCrossShardPropagation())");
  }
  if (observer_ != nullptr && !observer_->shardSafe()) {
    throw std::logic_error(
        "sharded runs require a shard-safe SpanObserver (attach an "
        "obs::TraceSampler)");
  }
  const unsigned effectiveThreads =
      std::min<unsigned>(config_.threads, static_cast<unsigned>(shards_.size()));
  if (effectiveThreads > 1 && trace_.level() != TraceLevel::kOff) {
    throw std::logic_error(
        "multi-threaded runs require tracing off (the trace ring is shared)");
  }
}

void Simulation::drainMailbox(Shard& shard) {
  std::vector<Mail>& mail = shard.draining;
  mail.clear();  // whatever a drain that threw left behind is discarded
  {
    std::lock_guard<std::mutex> lock(shard.mailMutex);
    mail.swap(shard.mailbox);
  }
  if (mail.empty()) return;
  // Sort keys, not the Mail records: each carries a 128-byte callback. The
  // keys are unique, so the order equals sorting the records themselves.
  std::vector<MailKey>& order = shard.mailOrder;
  order.clear();
  for (std::size_t i = 0; i < mail.size(); ++i) {
    order.push_back(MailKey{mail[i].when, mail[i].fromShard, mail[i].seq,
                            static_cast<std::uint32_t>(i)});
  }
  std::sort(order.begin(), order.end());
  for (const MailKey& key : order) {
    if (key.when < shard.executedThrough) {
      pastWindowPosts_.fetch_add(1, std::memory_order_relaxed);
      assert(false && "cross-shard mail below the executed window");
      throw std::logic_error(
          "cross-shard message arrived below the receiving shard's executed "
          "window: lookahead violation");
    }
    shard.queue.schedule(key.when, std::move(mail[key.index].cb));
  }
  mail.clear();
}

void Simulation::executeWindow(Shard& shard, SimTime horizon) {
  EventQueue& q = shard.queue;
  while (!q.empty() && q.nextTime() < horizon) {
    const EventQueue::Firing f = q.beginFire();
    assert(f.when >= shard.now && "event queue produced a time in the past");
    shard.now = f.when;
    invokeInPlace(q, f);
    ++shard.executed;
    q.finishFire(f);
  }
  shard.executedThrough = horizon;
}

std::uint64_t Simulation::runWindowed(SimTime until) {
  validateWindowedRun();
  const auto shardCount = static_cast<unsigned>(shards_.size());
  const unsigned nThreads = std::min<unsigned>(config_.threads, shardCount);

  // Contiguous shard ranges per worker: outputs depend only on the shard
  // count because rounds are globally synchronized — the mapping of shards
  // to workers affects wall-clock only.
  std::vector<std::pair<unsigned, unsigned>> ranges(nThreads);
  {
    const unsigned base = shardCount / nThreads;
    const unsigned extra = shardCount % nThreads;
    unsigned begin = 0;
    for (unsigned w = 0; w < nThreads; ++w) {
      const unsigned size = base + (w < extra ? 1u : 0u);
      ranges[w] = {begin, begin + size};
      begin += size;
    }
  }

  std::uint64_t startExecuted = 0;
  for (const auto& s : shards_) startExecuted += s->executed;

  WindowBarrier barrier(nThreads);
  std::vector<SimTime> localMin(nThreads, kMaxTime);
  SimTime horizon = 0;
  bool done = false;
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex errorMutex;

  auto recordError = [&] {
    failed.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(errorMutex);
    if (!error) error = std::current_exception();
  };

  auto worker = [&](unsigned w) {
    const auto [first, last] = ranges[w];
    while (true) {
      // Phase A: merge mailboxes, then publish this worker's minimum
      // next-event time for the global min-reduction.
      SimTime minNext = kMaxTime;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          for (unsigned i = first; i < last; ++i) {
            Shard& s = *shards_[i];
            tlsCursor = {this, &s};
            drainMailbox(s);
            if (!s.queue.empty()) {
              minNext = std::min(minNext, s.queue.nextTime());
            }
          }
        } catch (...) {
          recordError();
        }
      }
      localMin[w] = minNext;
      barrier.arrive([&] {
        SimTime t = kMaxTime;
        for (const SimTime m : localMin) t = std::min(t, m);
        if (failed.load(std::memory_order_relaxed) || t == kMaxTime ||
            t > until) {
          done = true;
          return;
        }
        SimTime h = (t > kMaxTime - lookahead_) ? kMaxTime : t + lookahead_;
        if (until != kMaxTime && h > until) h = until + 1;
        horizon = h;
      });
      if (done) break;
      // Phase B: every shard may safely execute below the horizon — no
      // cross-shard message generated this round can land before it.
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          for (unsigned i = first; i < last; ++i) {
            Shard& s = *shards_[i];
            tlsCursor = {this, &s};
            executeWindow(s, horizon);
          }
        } catch (...) {
          recordError();
        }
      }
      barrier.arrive([] {});
    }
    tlsCursor = {nullptr, nullptr};
  };

  threadedRun_ = true;
  std::vector<std::thread> threads;
  threads.reserve(nThreads - 1);
  for (unsigned w = 1; w < nThreads; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (auto& t : threads) t.join();
  threadedRun_ = false;

  if (error) std::rethrow_exception(error);

  // Between runs all shard clocks agree: the bound for a bounded run, the
  // global max for a drain.
  SimTime sync = until;
  if (until == kMaxTime) {
    sync = 0;
    for (const auto& s : shards_) sync = std::max(sync, s->now);
  }
  std::uint64_t executed = 0;
  for (const auto& s : shards_) {
    if (s->now < sync) s->now = sync;
    executed += s->executed;
  }
  return executed - startExecuted;
}

std::uint64_t Simulation::runUntil(SimTime until) {
  if (shards_.size() == 1) return runSerial(until, /*bounded=*/true);
  return runWindowed(until);
}

std::uint64_t Simulation::runAll() {
  if (shards_.size() == 1) return runSerial(0, /*bounded=*/false);
  return runWindowed(kMaxTime);
}

bool Simulation::step() {
  if (shards_.size() != 1) {
    throw std::logic_error("Simulation::step: single-shard mode only");
  }
  if (shard0_->queue.empty()) return false;
  executeOne();
  return true;
}

ShardScope::ShardScope(Simulation& sim, ShardId shard)
    : sim_(sim), prev_(sim.activeShard_) {
  if (shard >= sim.shards_.size()) {
    throw std::out_of_range("ShardScope: no such shard");
  }
  sim.activeShard_ = sim.shards_[shard].get();
}

ShardScope::~ShardScope() { sim_.activeShard_ = prev_; }

}  // namespace softqos::sim
