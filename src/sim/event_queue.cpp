#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace prdrb {

void EventQueue::heap_remove_top() {
  std::pop_heap(heap_.begin(), heap_.end(), EntryGreater{});
  heap_.pop_back();
}

EventId EventQueue::schedule(SimTime when, Action action) {
  if (std::isnan(when)) {
    // A NaN time would silently corrupt event_entry_less ordering: the heap
    // invariant breaks without tripping any assert. Fail loudly at the
    // source instead.
    throw std::invalid_argument("EventQueue::schedule: event time is NaN");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    assert(slots_.size() <= (kSlotMask + 1) && "too many pending events");
  }
  assert((next_seq_ >> (64 - kSlotBits)) == 0 && "sequence space exhausted");
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  Slot& cell = slots_[slot];
  cell.action = std::move(action);
  cell.key = id;
  heap_.push_back(EventEntry{when, id});
  std::push_heap(heap_.begin(), heap_.end(), EntryGreater{});
  return id;
}

void EventQueue::retire(std::uint32_t slot) {
  Slot& cell = slots_[slot];
  cell.action = Action{};  // release captured state eagerly
  cell.key = 0;            // invalidate every outstanding id for this slot
  free_slots_.push_back(slot);
}

void EventQueue::cancel(EventId id) {
  if (id == 0) return;  // the "no event" sentinel (a vacant slot's key is 0)
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  // A stale, already-fired, already-cancelled or never-issued id fails the
  // key compare and is a true no-op; only ids still pending can add a
  // tombstone, so tombstones_ stays bounded by size().
  if (slot >= slots_.size() || slots_[slot].key != id) return;
  retire(slot);
  ++tombstones_;
  purge_top();  // keep the "non-empty heap has a live top" invariant
}

void EventQueue::purge_top() {
  while (!heap_.empty()) {
    const EventEntry& top = heap_.front();
    if (slots_[top.key & kSlotMask].key == top.key) break;  // live
    heap_remove_top();
    --tombstones_;
  }
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty() && "pop() requires a live event");
  const EventEntry e = heap_.front();
  heap_remove_top();
  const auto slot = static_cast<std::uint32_t>(e.key & kSlotMask);
  assert(slots_[slot].key == e.key && "heap top must be live");
  Fired fired{e.time, std::move(slots_[slot].action)};
  retire(slot);
  purge_top();
  return fired;
}

}  // namespace prdrb
