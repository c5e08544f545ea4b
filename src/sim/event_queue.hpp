// Pending-event set for the discrete-event kernel.
//
// A binary heap of 16-byte (time, key) entries with one dispatch order:
// time, then scheduling sequence — which keeps every run bit-for-bit
// reproducible for a given seed, the property the evaluation methodology
// (thesis §4.3) relies on when averaging repeated runs. O(log n)
// schedule/pop.
//
// Hot-path design (DESIGN.md "Pooled event kernel"):
//  * Actions are InlineFunction callbacks — captures up to kActionCapacity
//    bytes live inside the slot, so schedule/pop never touch the heap for
//    the per-hop lambdas that dominate a simulation.
//  * Callbacks live in a recycled slot array; heap entries reference slots
//    by (index, generation). A cancelled or fired slot bumps its
//    generation, which invalidates every outstanding EventId for it —
//    cancellation needs no hash lookup, just one array access and a
//    generation compare. (FR-DRB arms a watchdog per in-flight message and
//    cancels it on ACK, so cancel must be cheap.)
//  * Cancellation is lazy (tombstones): a cancelled entry stays in the heap
//    until it surfaces at the top, where it is purged, maintaining the
//    invariant "a non-empty heap has a live top" — empty() and next_time()
//    are truly const queries.
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

  /// Schedule `action` at absolute time `when`. Returns a cancellation id.
  /// `when` must not be NaN (it would silently corrupt the heap ordering
  /// invariant); throws std::invalid_argument.
  EventId schedule(SimTime when, Action action);

  /// Cancel a pending event. Cancelling an id that already fired, was
  /// already cancelled, or was never issued is a true no-op (the slot
  /// generation no longer matches). Pending ids leave a tombstone, bounded
  /// by size().
  void cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live() == 0; }

  /// Pending entries, live + tombstoned.
  std::size_t size() const { return heap_.size(); }

  /// Live (non-cancelled) pending events.
  std::size_t live() const { return size() - tombstones_; }

  /// Number of cancelled-but-not-yet-purged entries (bounded by size()).
  std::size_t pending_cancellations() const { return tombstones_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  SimTime next_time() const {
    return heap_.empty() ? kTimeInfinity : heap_.front().time;
  }

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
  // (asserted in schedule()).
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  /// Min-heap comparator: equal times tie-break on the key's high-bits
  /// sequence, i.e. FIFO scheduling order.
  struct EntryGreater {
    bool operator()(const EventEntry& a, const EventEntry& b) const {
      return event_entry_less(b, a);
    }
  };

  /// One recyclable callback cell. `key` stamps the occupant's EventId
  /// (0 = vacant); a heap entry or cancellation handle is stale exactly
  /// when its key no longer matches — one load and one compare, no hash
  /// lookup.
  struct Slot {
    Action action;
    std::uint64_t key = 0;
  };

  /// Retire a slot: invalidate outstanding ids and recycle the cell.
  void retire(std::uint32_t slot);

  /// Drop tombstoned entries from the top of the heap so the top is live.
  void purge_top();

  /// Pop the heap's top entry (std::pop_heap), live or stale.
  void heap_remove_top();

  std::vector<EventEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t tombstones_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace prdrb
