#include "sim/simulator.hpp"

#include <cassert>

namespace prdrb {

// The asserts let NaN through to EventQueue::schedule, which throws.
EventId Simulator::schedule_in(SimTime delay, EventQueue::Action action) {
  assert(!(delay < 0));
  return queue_.schedule(now_ + delay, std::move(action));
}

EventId Simulator::schedule_at(SimTime when, EventQueue::Action action) {
  assert(!(when < now_));
  return queue_.schedule(when, std::move(action));
}

std::uint64_t Simulator::run_until(SimTime horizon) {
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.next_time() < horizon) {
    EventQueue::Fired fired = queue_.pop();
    assert(fired.time >= now_);
    now_ = fired.time;
    fired.action();
    ++count;
  }
  if (horizon != kTimeInfinity && now_ < horizon) now_ = horizon;
  executed_ += count;
  return count;
}

}  // namespace prdrb
