// Discrete-event simulator clock and run loop.
//
// This replaces the OPNET Modeler engine used in the thesis: components
// schedule callbacks (state-machine transitions) on a shared queue, and the
// kernel advances virtual time from event to event. The run loop pops one
// event at a time in (time, scheduling sequence) order; an action that
// schedules at the current time gets a larger sequence number than every
// pending event, so it runs after them, still at the current time.
// schedule_in enters the queue through the FIFO lane of its delay and
// schedule_at through the heap; which one an event took never changes when
// it runs.
// run_windows steps that loop on a fixed virtual-time grid, so periodic
// observers run between events instead of as events of their own.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace prdrb {

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedule an action `delay` seconds from now (delay >= 0), through the
  /// queue's lane for `delay` (EventQueue::schedule_in).
  EventId schedule_in(SimTime delay, EventQueue::Action action);

  /// Schedule an action at an absolute time (>= now()).
  EventId schedule_at(SimTime when, EventQueue::Action action);

  void cancel(EventId id) { queue_.cancel(id); }

  /// Run events until the queue drains or `horizon` is reached (exclusive).
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime horizon = kTimeInfinity);

  /// Run until the queue drains completely.
  std::uint64_t run() { return run_until(kTimeInfinity); }

  /// Run until the queue drains, stopping at every window boundary
  /// t = 0, width, width + width, ... (repeated sums, never k * width):
  /// run_until(t), then `at(t)` with now() == t, before any event stamped
  /// t. Stops after the `at` call of the first boundary that finds the
  /// queue empty, so now() ends on a boundary and an idle simulator gets
  /// exactly the t = 0 call. Returns the number of events executed.
  /// Throws std::invalid_argument unless `width` is finite and positive.
  std::uint64_t run_windows(SimTime width,
                            const std::function<void(SimTime)>& at);

  /// True when no live events remain.
  bool idle() const { return queue_.empty(); }

  /// The underlying pending-event set (tombstone/occupancy introspection).
  const EventQueue& queue() const { return queue_; }

  std::uint64_t events_executed() const { return executed_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace prdrb
