// Deterministic event queue for the softqos discrete-event kernel.
//
// Events live in a chunked slot arena whose slots never move. A 4-ary heap
// of inline 16-byte keys {when, seq << 24 | slot} orders them by (timestamp,
// insertion sequence), so events at equal timestamps fire in insertion order
// and whole-system runs stay bit-reproducible; sifts compare keys only and
// never touch the 144-byte slots. A per-slot position array finds an
// event's key for cancellation. EventId handles encode (slot, generation):
// cancelling a stale handle after the slot was recycled is a safe no-op.
// Cancellation removes the heap entry eagerly (no tombstones accumulate
// under cancel-heavy workloads such as RPC timeouts) and returns the slot to
// a free list for reuse. A fired callback is invoked where it lies in its
// slot; it is never moved out.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace softqos::sim {

/// Handle identifying a scheduled event; usable for cancellation. Encodes the
/// slot's generation in the high 32 bits, the owning queue's shard tag in
/// bits 24..31, and the arena slot in the low 24 bits (offset by one so 0
/// stays invalid). With the default tag of 0 the encoding is identical to
/// the historical (generation, slot) layout, so single-shard ids are
/// unchanged; in sharded simulations the kernel routes cancel/reschedule to
/// the owning queue through the tag.
using EventId = std::uint64_t;

/// Sentinel returned when no event was scheduled.
inline constexpr EventId kInvalidEvent = 0;

/// Pooled, generation-stamped priority queue of timed callbacks with stable
/// FIFO ordering at equal timestamps and eager cancellation.
class EventQueue {
 public:
  using Callback = SmallCallback;

  /// One event taken for execution. `cb` is the callback in its arena slot:
  /// the kernel invokes it in place, then hands the record to finishFire().
  /// A one-shot event is dead from beginFire() on (cancel() returns false,
  /// isPending() is false, size() excludes it); a periodic event stays live
  /// while its callback runs, so the callback can cancel or re-time it.
  struct Firing {
    SimTime when;
    EventId id;
    Callback& cb;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Tag ids minted by this queue with a shard identifier (0..255). Must be
  /// set before any event is scheduled; tag 0 (the default) reproduces the
  /// historical id encoding bit-for-bit.
  void setShardTag(std::uint8_t tag);

  /// Shard tag carried by an id (0 for ids from an untagged queue).
  [[nodiscard]] static std::uint8_t idShardTag(EventId id) {
    return static_cast<std::uint8_t>((id >> 24) & 0xffu);
  }

  /// Schedule `cb` to fire once at absolute time `when`. The callback is
  /// relocated once, into its slot. Scheduling into the already-fired past
  /// (`when` strictly before the timestamp of the most recently fired event)
  /// is a logic error: it would silently reorder history, and in a sharded
  /// run it means a cross-shard message violated the lookahead contract. It
  /// fails loudly — asserts in debug builds, bumps pastSchedules() and
  /// throws std::logic_error in all builds.
  EventId schedule(SimTime when, Callback&& cb);

  /// Schedule `cb` to fire at `first` and then every `period` ticks. The
  /// returned id stays valid across occurrences. `period` must be > 0.
  EventId schedulePeriodic(SimTime first, SimDuration period, Callback&& cb);

  /// Cancel a scheduled event (one-shot or periodic; also valid for a
  /// periodic event while its own callback is running). Safe with stale or
  /// invalid ids; returns true if the event was still live. A queued
  /// event's callback is destroyed and its heap entry removed immediately; a
  /// running periodic callback is destroyed by finishFire() once it returns.
  bool cancel(EventId id);

  /// Re-time a periodic event: its next occurrence moves to `now + period`
  /// (or, when called from inside the firing callback, to fire-time + period)
  /// and subsequent occurrences follow every `period`. Returns false for
  /// stale ids or one-shot events.
  bool reschedulePeriodic(EventId id, SimTime now, SimDuration period);

  /// True if `id` is live: scheduled, or a periodic event currently firing.
  [[nodiscard]] bool isPending(EventId id) const;

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Timestamp of the earliest queued event. Precondition: !empty().
  [[nodiscard]] SimTime nextTime() const;

  /// Remove the earliest event entirely and hand its callback out (a
  /// periodic event is deactivated). Precondition: !empty(). The kernel's
  /// fire path is beginFire()/finishFire(); pop() serves tests and ad-hoc
  /// draining.
  std::pair<SimTime, Callback> pop();

  /// Take the earliest event for execution. The caller invokes `cb` in place
  /// after advancing the clock, then must pass the record to finishFire() —
  /// also when the callback throws.
  Firing beginFire();

  /// Complete a fire. A one-shot event's slot is freed and its callback
  /// destroyed; so is a periodic event's that was cancelled from inside its
  /// own callback. Any other periodic event re-arms at when + period with a
  /// fresh insertion sequence number, so it orders after events its
  /// callback scheduled for the same time.
  void finishFire(const Firing& f);

  /// Total events scheduled over the queue's lifetime, periodic re-arms
  /// excluded (diagnostics).
  [[nodiscard]] std::uint64_t totalScheduled() const { return scheduled_; }

  /// Rejected attempts to schedule strictly before the most recently fired
  /// timestamp (each also threw std::logic_error). Nonzero means some caller
  /// tried to rewrite drained history — in sharded runs, a lookahead bug.
  [[nodiscard]] std::uint64_t pastSchedules() const { return pastSchedules_; }

  /// Timestamp of the most recently fired event; the floor below which
  /// schedule() refuses to insert. Starts at SimTime's minimum.
  [[nodiscard]] SimTime firedThrough() const { return firedThrough_; }

  /// Number of arena slots ever handed out (diagnostics: bounded by the peak
  /// number of simultaneously live or firing events, not by throughput).
  [[nodiscard]] std::size_t slotCapacity() const { return slotCount_; }

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  /// Slot indices must fit the 24-bit field of the id encoding.
  static constexpr std::uint32_t kMaxSlots = 0xfffffeu;
  /// Insertion sequence numbers share a key word with the slot index.
  static constexpr std::uint64_t kMaxSeq =
      (std::uint64_t{1} << (64 - kSlotBits)) - 1;
  /// Slots per arena chunk: small, so a fresh queue costs one ~12 KiB
  /// allocation (the two-host testbed never has more than ~21 events live).
  static constexpr unsigned kChunkBits = 6;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  struct Slot {
    Callback cb;
    SimDuration period = 0;  // 0 = one-shot
    /// Bumped when the event dies (cancelled, or a one-shot begins firing),
    /// so stale handles stop resolving.
    std::uint32_t generation = 1;
    std::uint32_t nextFree = kNpos;
  };

  /// Heap entry. Sequence numbers are unique, so the slot bits in `seqSlot`
  /// never decide an order; they only name the event.
  struct Key {
    SimTime when;
    std::uint64_t seqSlot;

    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seqSlot & kSlotMask);
    }
    [[nodiscard]] bool operator<(const Key& o) const {
      return when < o.when || (when == o.when && seqSlot < o.seqSlot);
    }
  };

  EventId makeId(std::uint32_t slot, std::uint32_t generation) const {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(shardTag_) << kSlotBits) |
           (static_cast<EventId>(slot) + 1);
  }

  Slot& slot(std::uint32_t idx) const {
    return chunks_[idx >> kChunkBits][idx & (kChunkSlots - 1)];
  }

  /// Slot index for `id`, or kNpos if the handle is stale/invalid.
  [[nodiscard]] std::uint32_t resolve(EventId id) const;

  std::uint32_t allocSlot();
  /// Kill the event in `idx`: its handles stop resolving, size() drops.
  void retire(std::uint32_t idx);
  /// Destroy the callback in `idx` and put the slot on the free list.
  void release(std::uint32_t idx);
  /// Next insertion sequence number; throws once the 40 bits run out.
  std::uint64_t nextSeq();
  static Key keyOf(SimTime when, std::uint64_t seq, std::uint32_t idx) {
    return Key{when, (seq << kSlotBits) | idx};
  }

  void heapPush(Key key);
  void heapRemove(std::uint32_t pos);
  void siftUp(std::uint32_t pos, Key key);
  void siftDown(std::uint32_t pos, Key key);
  void place(std::uint32_t pos, Key key) {
    heap_[pos] = key;
    pos_[key.slot()] = pos;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<Key> heap_;             // 4-ary, ordered by (when, seq)
  std::vector<std::uint32_t> pos_;    // heap position per slot, or kNpos
  std::uint32_t slotCount_ = 0;
  std::uint32_t freeHead_ = kNpos;
  std::size_t live_ = 0;
  std::uint64_t seqCounter_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t pastSchedules_ = 0;
  SimTime firedThrough_ = std::numeric_limits<SimTime>::min();
  std::uint8_t shardTag_ = 0;
};

}  // namespace softqos::sim
