#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace softqos::sim {

void EventQueue::setShardTag(std::uint8_t tag) {
  assert(slotCount_ == 0 && scheduled_ == 0 &&
         "shard tag must be set before any event is scheduled");
  shardTag_ = tag;
}

std::uint32_t EventQueue::resolve(EventId id) const {
  if (idShardTag(id) != shardTag_) return kNpos;
  const auto low = static_cast<std::uint32_t>(id & kSlotMask);
  if (low == 0 || low > slotCount_) return kNpos;
  const std::uint32_t idx = low - 1;
  // A free slot's generation was bumped past every id minted for it.
  if (slot(idx).generation != static_cast<std::uint32_t>(id >> 32)) {
    return kNpos;
  }
  return idx;
}

std::uint32_t EventQueue::allocSlot() {
  if (freeHead_ != kNpos) {
    const std::uint32_t idx = freeHead_;
    freeHead_ = slot(idx).nextFree;
    return idx;
  }
  // The bound is on *simultaneously live* events, not total throughput.
  if (slotCount_ >= kMaxSlots) {
    throw std::length_error("EventQueue: more than 2^24-2 simultaneous events");
  }
  if (slotCount_ == chunks_.size() * kChunkSlots) {
    // Slots never move once made: a callback runs in place while its own
    // callback schedules more events. Not zero-filled; only the small slot
    // headers are written.
    pos_.resize((chunks_.size() + 1) * kChunkSlots, kNpos);
    chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
  }
  return slotCount_++;
}

void EventQueue::retire(std::uint32_t idx) {
  ++slot(idx).generation;  // stale handles to this slot stop resolving
  --live_;
}

void EventQueue::release(std::uint32_t idx) {
  Slot& s = slot(idx);
  s.cb.reset();  // release captures eagerly, not at slot reuse
  s.nextFree = freeHead_;
  freeHead_ = idx;
}

std::uint64_t EventQueue::nextSeq() {
  if (seqCounter_ == kMaxSeq) {
    throw std::length_error("EventQueue: insertion sequence exhausted");
  }
  return ++seqCounter_;
}

EventId EventQueue::schedule(SimTime when, Callback&& cb) {
  assert(cb && "scheduling an empty callback");
  if (when < firedThrough_) {
    ++pastSchedules_;
    assert(false && "scheduling into an already-fired past window");
    throw std::logic_error(
        "EventQueue::schedule: timestamp precedes the already-fired window "
        "(cross-shard lookahead violation or clock misuse)");
  }
  const std::uint64_t seq = nextSeq();
  const std::uint32_t idx = allocSlot();
  Slot& s = slot(idx);
  s.period = 0;
  s.cb = std::move(cb);
  heapPush(keyOf(when, seq, idx));
  ++live_;
  ++scheduled_;
  return makeId(idx, s.generation);
}

EventId EventQueue::schedulePeriodic(SimTime first, SimDuration period,
                                     Callback&& cb) {
  assert(cb && "scheduling an empty callback");
  assert(period > 0 && "periodic events need a positive period");
  const EventId id = schedule(first, std::move(cb));
  slot(resolve(id)).period = period;
  return id;
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t idx = resolve(id);
  if (idx == kNpos) return false;
  retire(idx);
  // Not in the heap: a periodic event whose callback is running right now.
  // finishFire() frees the slot once the callback returns.
  if (pos_[idx] == kNpos) return true;
  heapRemove(pos_[idx]);
  release(idx);
  return true;
}

bool EventQueue::reschedulePeriodic(EventId id, SimTime now,
                                    SimDuration period) {
  assert(period > 0 && "periodic events need a positive period");
  const std::uint32_t idx = resolve(id);
  if (idx == kNpos) return false;
  Slot& s = slot(idx);
  if (s.period <= 0) return false;
  if (pos_[idx] != kNpos) {
    const Key key = keyOf(now + period, nextSeq(), idx);
    heapRemove(pos_[idx]);
    heapPush(key);
  }
  // Firing: finishFire() re-arms at fire-time + the updated period.
  s.period = period;
  return true;
}

bool EventQueue::isPending(EventId id) const { return resolve(id) != kNpos; }

SimTime EventQueue::nextTime() const {
  assert(!heap_.empty() && "nextTime() on empty queue");
  return heap_.front().when;
}

EventQueue::Firing EventQueue::beginFire() {
  assert(!heap_.empty() && "beginFire() on empty queue");
  const Key top = heap_.front();
  const std::uint32_t idx = top.slot();
  heapRemove(0);
  firedThrough_ = top.when;
  Slot& s = slot(idx);
  const EventId id = makeId(idx, s.generation);
  if (s.period == 0) retire(idx);
  return Firing{top.when, id, s.cb};
}

void EventQueue::finishFire(const Firing& f) {
  const auto idx = static_cast<std::uint32_t>((f.id & kSlotMask) - 1);
  Slot& s = slot(idx);
  if (s.generation != static_cast<std::uint32_t>(f.id >> 32)) {
    release(idx);  // a one-shot, or cancelled from inside its own callback
    return;
  }
  heapPush(keyOf(f.when + s.period, nextSeq(), idx));
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  const Firing f = beginFire();
  Callback cb = std::move(f.cb);
  cancel(f.id);  // deactivates a periodic event; a one-shot is already dead
  finishFire(f);
  return {f.when, std::move(cb)};
}

void EventQueue::heapPush(Key key) {
  const auto pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(key);
  siftUp(pos, key);
}

void EventQueue::heapRemove(std::uint32_t pos) {
  assert(pos < heap_.size());
  pos_[heap_[pos].slot()] = kNpos;
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  // The displaced last key may need to move either direction.
  if (pos > 0 && last < heap_[(pos - 1) / 4]) {
    siftUp(pos, last);
  } else {
    siftDown(pos, last);
  }
}

void EventQueue::siftUp(std::uint32_t pos, Key key) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!(key < heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void EventQueue::siftDown(std::uint32_t pos, Key key) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= n) break;
    const std::uint32_t end = std::min(first + 4, n);
    std::uint32_t best = first;
    for (std::uint32_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < key)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, key);
}

}  // namespace softqos::sim
