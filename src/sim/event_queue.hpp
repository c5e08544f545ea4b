// Pending-event set for the discrete-event kernel.
//
// Entries are 16-byte (time, key) pairs with one dispatch order: time, then
// scheduling sequence — which keeps every run bit-for-bit reproducible for
// a given seed, the property the evaluation methodology (thesis §4.3)
// relies on when averaging repeated runs.
//
// Hot-path design (DESIGN.md "Pooled event kernel"):
//  * Two kinds of source hold the entries: a binary heap for absolute
//    times (schedule) and up to kLanes FIFO lanes for constant delays
//    (schedule_in). Almost every pipeline event is `now + d` for one of a
//    handful of delays d; with a non-decreasing `now` the entries for one d
//    arrive already in dispatch order, so a lane appends and pops in O(1)
//    where the heap pays O(log n). pop() takes the earliest of the heap
//    top and the lane heads — exactly the order one heap would give.
//  * Actions are InlineFunction callbacks — captures up to kActionCapacity
//    bytes live inside the slot, so schedule/pop never touch the heap for
//    the per-hop lambdas that dominate a simulation.
//  * Callbacks live in a recycled slot array; entries reference slots by
//    (index, generation). A cancelled or fired slot bumps its generation,
//    which invalidates every outstanding EventId for it — cancellation
//    needs no hash lookup, just one array access and a generation compare.
//    (FR-DRB arms a watchdog per in-flight message and cancels it on ACK,
//    so cancel must be cheap.)
//  * Cancellation is lazy (tombstones): a cancelled entry stays in its heap
//    or lane until it is the earliest pending entry over all of them, where
//    it is purged, maintaining the invariant "a non-empty queue has a live
//    earliest entry" — empty() and next_time() are truly const queries.
#pragma once

#include <cstdint>
#include <vector>

#include "util/inline_function.hpp"
#include "util/types.hpp"

namespace prdrb {

/// Opaque handle used to cancel a scheduled event (e.g. FR-DRB watchdogs).
/// Id 0 is never issued and may be used as a "no event" sentinel. Ids are
/// monotonically increasing in scheduling order.
using EventId = std::uint64_t;

/// Inline capture budget for event actions. 48 bytes covers every kernel
/// lambda in the packet pipeline (pooled-handle captures are ≤ 24 bytes);
/// larger captures transparently spill to one heap allocation.
inline constexpr std::size_t kActionCapacity = 48;

/// One pending event: absolute time plus the EventId key that locates (and
/// version-checks) the callback slot. Ties on `time` break on `key`, i.e.
/// scheduling order — the kernel's determinism contract. Key 0 is reserved
/// for vacant slots and never scheduled.
struct EventEntry {
  SimTime time;
  std::uint64_t key;
};

inline bool event_entry_less(const EventEntry& a, const EventEntry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.key < b.key;
}

class EventQueue {
 public:
  using Action = InlineFunction<kActionCapacity>;

  /// Lanes per queue: enough for the pipeline's delays (wire, router,
  /// router plus a tail, packet and ACK serialization, zero) with room to
  /// spare. Each lane is a ring that grows to its high-water mark.
  static constexpr int kLanes = 8;

  /// Schedule `action` at absolute time `when` on the heap. Returns a
  /// cancellation id. `when` must not be NaN (it would silently corrupt the
  /// ordering invariant); throws std::invalid_argument.
  EventId schedule(SimTime when, Action action);

  /// Schedule `action` at `now + delay` on the lane keyed on `delay`'s bit
  /// pattern. The entry falls back to the heap when the time would precede
  /// the lane's newest entry (a `now` that stepped back), or when every
  /// lane serves another delay and none is empty. Dispatch order is the
  /// same as schedule(now + delay, action). Throws std::invalid_argument
  /// when `now + delay` is NaN.
  EventId schedule_in(SimTime now, SimTime delay, Action action);

  /// Cancel a pending event. Cancelling an id that already fired, was
  /// already cancelled, or was never issued is a true no-op (the slot
  /// generation no longer matches). Pending ids leave a tombstone, bounded
  /// by size().
  void cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live() == 0; }

  /// Pending entries over the heap and every lane, live + tombstoned.
  std::size_t size() const { return heap_.size() + lane_entries_; }

  /// Live (non-cancelled) pending events.
  std::size_t live() const { return size() - tombstones_; }

  /// Number of cancelled-but-not-yet-purged entries (bounded by size()).
  std::size_t pending_cancellations() const { return tombstones_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  SimTime next_time() const { return top_.time; }

  /// Pop and return the earliest live event. Precondition: !empty().
  struct Fired {
    SimTime time;
    Action action;
  };
  Fired pop();

 private:
  // An EventId packs (sequence << kSlotBits) | slot. The sequence number is
  // globally monotonic, so ids order by scheduling time; the low bits locate
  // the callback slot. 2^24 concurrent pending events and 2^40 total
  // scheduled events per queue are far beyond any simulation this repo runs
  // (asserted in claim()).
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  /// Source index of the heap, next to lane indices 0..kLanes-1.
  static constexpr int kHeap = -1;

  /// Stands for "no entry": later than any real entry (no key reaches
  /// 2^64 - 1), so it loses every comparison and reads as kTimeInfinity.
  static constexpr EventEntry kNoEntry{kTimeInfinity, ~0ull};

  /// Min-heap comparator: equal times tie-break on the key's high-bits
  /// sequence, i.e. FIFO scheduling order.
  struct EntryGreater {
    bool operator()(const EventEntry& a, const EventEntry& b) const {
      return event_entry_less(b, a);
    }
  };

  /// One recyclable callback cell. `key` stamps the occupant's EventId
  /// (0 = vacant); an entry or cancellation handle is stale exactly when
  /// its key no longer matches — one load and one compare, no hash lookup.
  struct Slot {
    Action action;
    std::uint64_t key = 0;
  };

  /// One FIFO lane: entries in (time, key) order in a ring whose capacity
  /// is 0 or a power of two. Its head is mirrored in heads_.
  struct Lane {
    std::vector<EventEntry> ring;
    std::size_t first = 0;  // ring index of the head
    std::size_t count = 0;
    SimTime tail = 0;  // time of the newest entry, when count > 0
  };

  /// Reject a NaN time, then take a slot for `action`; returns its id.
  EventId claim(SimTime when, Action action);

  /// The lane that may take an entry for `delay` (a bit pattern) at
  /// `when`: its own, else an unused one or an empty one re-keyed; kHeap
  /// when none may.
  int lane_for(std::uint64_t delay, SimTime when);

  void heap_push(const EventEntry& e);
  void lane_push(int lane, const EventEntry& e);

  /// Remove the earliest entry, live or stale, from its source and find
  /// the next earliest among the heap top and the lane heads.
  void remove_top();

  /// Retire a slot: invalidate outstanding ids and recycle the cell.
  void retire(std::uint32_t slot);

  /// Drop tombstoned entries while one is the earliest pending entry.
  void purge_top();

  std::vector<EventEntry> heap_;
  Lane lanes_[kLanes];
  // Lanes 0..lanes_used_-1 are keyed: their delay bit patterns, and their
  // heads (kNoEntry while empty) side by side, so a rescan reads two cache
  // lines.
  int lanes_used_ = 0;
  std::uint64_t delays_[kLanes] = {};
  EventEntry heads_[kLanes] = {};
  std::size_t lane_entries_ = 0;
  EventEntry top_ = kNoEntry;  // earliest pending entry: live, or kNoEntry
  int top_source_ = kHeap;     // where top_ sits: kHeap or a lane index
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t tombstones_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace prdrb
