#include "sim/simulator.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace prdrb {

// The asserts let NaN through to the EventQueue, which throws.
EventId Simulator::schedule_in(SimTime delay, EventQueue::Action action) {
  assert(!(delay < 0));
  return queue_.schedule_in(now_, delay, std::move(action));
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

std::uint64_t Simulator::run_windows(SimTime width,
                                     const std::function<void(SimTime)>& at) {
  // A zero or NaN width would never advance t, so the loop would spin; an
  // infinite one would call `at` at infinity.
  if (!(width > 0) || !std::isfinite(width)) {
    throw std::invalid_argument("run_windows: width must be finite and > 0");
  }
  std::uint64_t count = 0;
  for (SimTime t = 0;; t += width) {
    count += run_until(t);
    at(t);
    if (idle()) return count;
  }
}

}  // namespace prdrb
