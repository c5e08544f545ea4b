#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace prdrb {

EventId EventQueue::claim(SimTime when, Action action) {
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
  return id;
}

EventId EventQueue::schedule(SimTime when, Action action) {
  const EventEntry e{when, claim(when, std::move(action))};
  heap_push(e);
  return e.key;
}

EventId EventQueue::schedule_in(SimTime now, SimTime delay, Action action) {
  const SimTime when = now + delay;
  const EventEntry e{when, claim(when, std::move(action))};
  const int lane = lane_for(std::bit_cast<std::uint64_t>(delay), when);
  if (lane == kHeap) {
    heap_push(e);
  } else {
    lane_push(lane, e);
  }
  return e.key;
}

int EventQueue::lane_for(std::uint64_t delay, SimTime when) {
  for (int i = 0; i < lanes_used_; ++i) {
    if (delays_[i] != delay) continue;
    // Keys only grow, so an entry no earlier than the lane's newest one
    // keeps the lane in (time, key) order. A `now` that stepped back is
    // the one way to fall behind it.
    const Lane& lane = lanes_[i];
    return lane.count == 0 || when >= lane.tail ? i : kHeap;
  }
  int lane = kHeap;
  if (lanes_used_ < kLanes) {
    lane = lanes_used_++;
    heads_[lane] = kNoEntry;
  } else {
    for (int i = 0; i < kLanes; ++i) {
      if (lanes_[i].count == 0) {
        lane = i;
        break;
      }
    }
  }
  if (lane != kHeap) delays_[lane] = delay;
  return lane;
}

void EventQueue::heap_push(const EventEntry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), EntryGreater{});
  if (event_entry_less(e, top_)) {
    top_ = e;
    top_source_ = kHeap;
  }
}

void EventQueue::lane_push(int i, const EventEntry& e) {
  Lane& lane = lanes_[i];
  if (lane.count == lane.ring.size()) {
    // Double the ring, unrolling it so the head lands at index 0.
    std::vector<EventEntry> grown(std::max<std::size_t>(16, 2 * lane.count));
    for (std::size_t k = 0; k < lane.count; ++k) {
      grown[k] = lane.ring[(lane.first + k) & (lane.ring.size() - 1)];
    }
    lane.ring.swap(grown);
    lane.first = 0;
  }
  lane.ring[(lane.first + lane.count) & (lane.ring.size() - 1)] = e;
  lane.tail = e.time;
  ++lane_entries_;
  if (lane.count++ > 0) return;  // behind the head: cannot be the earliest
  heads_[i] = e;
  if (event_entry_less(e, top_)) {
    top_ = e;
    top_source_ = i;
  }
}

void EventQueue::remove_top() {
  if (top_source_ == kHeap) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryGreater{});
    heap_.pop_back();
  } else {
    Lane& lane = lanes_[top_source_];
    lane.first = (lane.first + 1) & (lane.ring.size() - 1);
    --lane_entries_;
    heads_[top_source_] = --lane.count > 0 ? lane.ring[lane.first] : kNoEntry;
  }
  top_ = heap_.empty() ? kNoEntry : heap_.front();
  top_source_ = kHeap;
  for (int i = 0; i < lanes_used_; ++i) {
    if (event_entry_less(heads_[i], top_)) {
      top_ = heads_[i];
      top_source_ = i;
    }
  }
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
  purge_top();  // keep the "non-empty queue has a live earliest" invariant
}

void EventQueue::purge_top() {
  while (top_.key != kNoEntry.key &&
         slots_[top_.key & kSlotMask].key != top_.key) {
    remove_top();
    --tombstones_;
  }
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty() && "pop() requires a live event");
  const EventEntry e = top_;
  remove_top();
  const auto slot = static_cast<std::uint32_t>(e.key & kSlotMask);
  assert(slots_[slot].key == e.key && "the earliest entry must be live");
  Fired fired{e.time, std::move(slots_[slot].action)};
  retire(slot);
  purge_top();
  return fired;
}

}  // namespace prdrb
