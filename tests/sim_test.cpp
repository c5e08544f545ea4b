#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace prdrb {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  const EventId id = q.schedule(2.0, [&] { fired += 100; });
  q.schedule(3.0, [&] { ++fired; });
  q.cancel(id);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelTwiceIsHarmless) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireLeavesNoTombstone) {
  // Regression: cancelling an id whose event already fired used to park a
  // tombstone in the cancelled set forever (nothing ever purged it).
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.pop().action();  // the event fires
  q.cancel(id);      // FR-DRB-style late cancel must be a true no-op
  EXPECT_EQ(q.pending_cancellations(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TombstoneSetStaysBoundedUnderChurn) {
  // Watchdog churn: schedule, fire, then cancel the fired id — repeated.
  // The tombstone set must stay bounded (here: empty) instead of growing
  // by one entry per iteration.
  EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    const EventId id = q.schedule(static_cast<SimTime>(i), [] {});
    q.pop().action();
    q.cancel(id);
  }
  EXPECT_EQ(q.pending_cancellations(), 0u);

  // Pending cancels do tombstone, but purge on pop reclaims them.
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
  }
  for (EventId id : ids) q.cancel(id);
  EXPECT_LE(q.pending_cancellations(), 100u);
  EXPECT_TRUE(q.empty());  // purges everything
  EXPECT_EQ(q.pending_cancellations(), 0u);
}

TEST(EventQueue, CancelOfUnknownIdIsIgnored) {
  EventQueue q;
  q.cancel(0);     // the "no event" sentinel
  q.cancel(999);   // never issued
  EXPECT_EQ(q.pending_cancellations(), 0u);
  const EventId id = q.schedule(1.0, [] {});
  q.cancel(id + 1);  // not issued yet
  EXPECT_EQ(q.pending_cancellations(), 0u);
  q.pop();
}

TEST(EventQueue, NextTimeReflectsEarliestLiveEvent) {
  EventQueue q;
  const EventId early = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, ConstQueriesAreConstAndConsistent) {
  // empty()/next_time()/size()/pending_cancellations() are const queries:
  // calling them through a const ref must compile and must not change any
  // observable state (regression for the old purge-on-read empty()).
  EventQueue q;
  const EventQueue& cq = q;
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(cq.next_time(), kTimeInfinity);
  q.schedule(2.0, [] {});
  const EventId mid = q.schedule(3.0, [] {});
  q.cancel(mid);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(cq.empty());
    EXPECT_DOUBLE_EQ(cq.next_time(), 2.0);
    EXPECT_EQ(cq.size(), 2u);
    EXPECT_EQ(cq.live(), 1u);
    EXPECT_EQ(cq.pending_cancellations(), 1u);
  }
}

TEST(EventQueue, TombstonesNeverExceedSize) {
  // Adversarial churn: interleave schedules, mid-heap cancels, and pops.
  // The tombstone count must stay bounded by the heap size at every step.
  EventQueue q;
  std::vector<EventId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      ids.push_back(q.schedule(static_cast<SimTime>((round * 37 + i * 11) % 97),
                               [] {}));
    }
    // Cancel every third outstanding id (some already fired: true no-ops).
    for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
    ASSERT_LE(q.pending_cancellations(), q.size());
    for (int i = 0; i < 10 && !q.empty(); ++i) {
      q.pop();
      ASSERT_LE(q.pending_cancellations(), q.size());
    }
  }
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.pending_cancellations(), 0u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, SlotReuseDoesNotConfuseStaleIds) {
  // A slot freed by fire/cancel is recycled for later events; a stale id
  // kept from the earlier occupant must not cancel the new one.
  EventQueue q;
  const EventId old_id = q.schedule(1.0, [] {});
  q.pop();  // fires; slot is recycled
  int fired = 0;
  q.schedule(2.0, [&] { ++fired; });  // reuses the slot
  q.cancel(old_id);                   // stale handle: must be a no-op
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EventIdsAreMonotonic) {
  // Ids order by scheduling time — the property the heap tie-break (and
  // deterministic replay of simultaneous events) is built on.
  EventQueue q;
  EventId prev = 0;
  for (int i = 0; i < 100; ++i) {
    const EventId id = q.schedule(1.0, [] {});
    EXPECT_GT(id, prev);
    prev = id;
    if (i % 2 == 0) q.pop();  // slot recycling must not break monotonicity
  }
}

TEST(InlineFunction, LargeCapturesSpillToHeapAndStillRun) {
  // Captures beyond the inline budget must still work (single allocation,
  // std::function-equivalent semantics).
  std::array<std::uint64_t, 32> big{};  // 256 bytes > kActionCapacity
  big[0] = 7;
  big[31] = 11;
  std::uint64_t sum = 0;
  EventQueue::Action a{[big, &sum] { sum = big[0] + big[31]; }};
  EventQueue::Action b{std::move(a)};  // relocating a heap-backed action
  b();
  EXPECT_EQ(sum, 18u);
}

TEST(InlineFunction, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(41);
  int seen = 0;
  EventQueue::Action a{[p = std::move(p), &seen] { seen = *p + 1; }};
  EventQueue::Action b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_in(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(1.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_in(i * 0.1, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  SimTime t = -1;
  sim.schedule_in(1.0, [&] {
    sim.schedule_in(0.0, [&] { t = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(t, 1.0);
}


TEST(Simulator, SameTimeEventsRunInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2e-6, [&] { order.push_back(99); });  // later time
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(1e-6, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.run_until(1.5e-6), 8u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim.queue().live(), 1u);
  EXPECT_EQ(sim.queue().next_time(), 2e-6);
}

TEST(Simulator, CancelFromEarlierSameTimeActionIsHonoured) {
  Simulator sim;
  std::vector<int> order;
  EventId victim = 0;
  sim.schedule_at(1e-6, [&] {
    order.push_back(0);
    sim.cancel(victim);  // a later event at this same time
  });
  sim.schedule_at(1e-6, [&] { order.push_back(1); });
  victim = sim.schedule_at(1e-6, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.queue().pending_cancellations(), 0u);
}

TEST(Simulator, SameTimeSelfSchedulingRunsAfterPendingEvents) {
  // An action scheduling at its own timestamp runs at that time, after
  // every event already pending there.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1e-6, [&] {
    order.push_back(0);
    sim.schedule_at(1e-6, [&] { order.push_back(2); });
  });
  sim.schedule_at(1e-6, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 1e-6);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, NaNTimeThrowsAndCorruptsNothing) {
  // A NaN timestamp compares false against everything and would silently
  // break the heap ordering invariant; it is rejected before any state
  // changes.
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1e-6, [&] { ++fired; });
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-std::numeric_limits<double>::quiet_NaN(),
                               [] {}),
               std::invalid_argument);
  EXPECT_EQ(sim.queue().live(), 1u) << "failed schedule must not leak a slot";
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 1e-6);
}

// --- Simulator::run_windows: periodic observers at window boundaries ---

TEST(Simulator, RunWindowsBoundariesAreExactRepeatedSums) {
  Simulator sim;
  sim.schedule_at(1.05, [] {});
  std::vector<SimTime> seen;
  sim.run_windows(0.1, [&](SimTime t) {
    EXPECT_EQ(sim.now(), t);
    seen.push_back(t);
  });
  std::vector<SimTime> sums{0.0};
  while (sums.size() < 12) sums.push_back(sums.back() + 0.1);
  EXPECT_EQ(seen, sums);
  // Ten repeated additions of 0.1 fall one ulp short of 1.0, so the grid
  // is the sums, not the products.
  EXPECT_NE(seen[10], 10 * 0.1);
  EXPECT_EQ(sim.now(), sums.back());
}

TEST(Simulator, RunWindowsCallsAtBeforeEventsStampedOnTheBoundary) {
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule_at(0.5, [&] { order.push_back("event@0.5"); });
  sim.schedule_at(0.25, [&] {
    // Scheduled inside the run, unlike event@0.5: the boundary call at 0.5
    // precedes both, whenever they were scheduled.
    sim.schedule_at(0.5, [&] { order.push_back("late@0.5"); });
  });
  sim.run_windows(0.25, [&](SimTime t) {
    order.push_back("at@" + std::to_string(t).substr(0, 4));
  });
  EXPECT_EQ(order, (std::vector<std::string>{"at@0.00", "at@0.25", "at@0.50",
                                             "event@0.5", "late@0.5",
                                             "at@0.75"}));
}

TEST(Simulator, RunWindowsStopsAtTheFirstBoundaryThatFindsTheQueueEmpty) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(0.3, [&] { ++fired; });
  std::vector<SimTime> seen;
  EXPECT_EQ(sim.run_windows(0.25, [&](SimTime t) { seen.push_back(t); }),
            1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(seen, (std::vector<SimTime>{0, 0.25, 0.5}));
  EXPECT_EQ(sim.now(), 0.5);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.events_executed(), 1u);

  // An event stamped on a boundary keeps the queue busy at that boundary's
  // call, so the loop runs one boundary further.
  Simulator on_grid;
  on_grid.schedule_at(0.5, [] {});
  seen.clear();
  on_grid.run_windows(0.25, [&](SimTime t) { seen.push_back(t); });
  EXPECT_EQ(seen, (std::vector<SimTime>{0, 0.25, 0.5, 0.75}));
}

TEST(Simulator, RunWindowsOnAnIdleSimulatorMakesOnlyTheZeroCall) {
  Simulator sim;
  std::vector<SimTime> seen;
  EXPECT_EQ(sim.run_windows(1e-3, [&](SimTime t) { seen.push_back(t); }),
            0u);
  EXPECT_EQ(seen, (std::vector<SimTime>{0}));
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, RunWindowsRejectsZeroNegativeAndNonFiniteWidths) {
  for (const SimTime width : {0.0, -1.0, std::nan(""),
                              std::numeric_limits<double>::infinity()}) {
    Simulator sim;
    int fired = 0;
    int calls = 0;
    sim.schedule_at(1e-6, [&] { ++fired; });
    EXPECT_THROW(sim.run_windows(width, [&](SimTime) { ++calls; }),
                 std::invalid_argument)
        << width;
    EXPECT_EQ(calls, 0) << width;
    EXPECT_EQ(fired, 0) << width;
  }
}

}  // namespace
}  // namespace prdrb
