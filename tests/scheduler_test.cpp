// Tests for the event kernel's dispatch contract: EventQueue runs in
// lockstep against a test-local reference — a std::set of (time, EventId)
// in which a cancel leaves a tombstone until it is the earliest entry —
// under random schedule/cancel/pop sequences through both entry points
// (the heap and the delay lanes), tie-heavy timestamps, clocks that step
// back, more delays than lanes, and actions that schedule or cancel from
// inside a dispatch. Also the Parsed<T> typed-error layer the factories and
// the numeric command-line flags return.
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "util/parsed.hpp"

namespace prdrb {
namespace {

// ---------------------------------------------------------------------------
// Differential fuzz: EventQueue against a reference ordered set

/// Drives one EventQueue and the reference set with the same operations and
/// checks after every step that both agree. Every action records its own
/// EventId when it fires; each pop() must fire exactly the reference
/// minimum, so the whole fired sequence matches the reference order. The
/// reference keeps a cancelled entry, as a tombstone, until it is the
/// earliest pending entry, so size() and pending_cancellations() are
/// checked exactly.
class Lockstep {
 public:
  Lockstep() = default;
  Lockstep(const Lockstep&) = delete;  // queued actions capture `this`
  Lockstep& operator=(const Lockstep&) = delete;

  /// Schedule at `when` through the heap entry point in both. `hook` (if
  /// any) runs inside the action, after the firing is recorded, so it can
  /// schedule or cancel mid-dispatch.
  EventId schedule(SimTime when, std::function<void()> hook = {}) {
    const auto self = std::make_shared<EventId>(0);
    return track(when, self, q_.schedule(when, action(self, std::move(hook))));
  }

  /// Schedule at `now + delay` through the lane entry point in both.
  EventId schedule_in(SimTime now, SimTime delay,
                      std::function<void()> hook = {}) {
    const auto self = std::make_shared<EventId>(0);
    return track(now + delay, self,
                 q_.schedule_in(now, delay, action(self, std::move(hook))));
  }

  /// Cancel in both; only a still-pending live id becomes a tombstone.
  void cancel(EventId id) {
    q_.cancel(id);
    const auto it = when_of_.find(id);
    if (it == when_of_.end() || !ref_.contains({it->second, id})) return;
    if (tombs_.insert(id).second) purge();
  }

  /// Pop the earliest event from both and run it at its time.
  void pop_and_run() {
    ASSERT_FALSE(ref_.empty());
    const auto want = *ref_.begin();
    ASSERT_FALSE(tombs_.contains(want.second)) << "earliest must be live";
    ref_.erase(ref_.begin());
    purge();
    EventQueue::Fired fired = q_.pop();
    ASSERT_EQ(fired.time, want.first);
    now_ = fired.time;
    const std::size_t before = fired_.size();
    fired.action();
    ASSERT_EQ(fired_.size(), before + 1);
    ASSERT_EQ(fired_[before], want.second) << "fired the wrong event";
  }

  void check() const {
    ASSERT_EQ(q_.size(), ref_.size());
    ASSERT_EQ(q_.pending_cancellations(), tombs_.size());
    ASSERT_EQ(q_.live(), ref_.size() - tombs_.size());
    ASSERT_EQ(q_.empty(), ref_.empty());
    ASSERT_EQ(q_.next_time(),
              ref_.empty() ? kTimeInfinity : ref_.begin()->first);
  }

  /// The time of the last event popped: a clock that never steps back.
  SimTime now() const { return now_; }
  const EventQueue& queue() const { return q_; }
  bool empty() const { return ref_.empty(); }
  const std::vector<EventId>& issued() const { return issued_; }
  const std::vector<EventId>& fired() const { return fired_; }

 private:
  EventQueue::Action action(std::shared_ptr<EventId> self,
                            std::function<void()> hook) {
    return [this, self = std::move(self), hook = std::move(hook)] {
      fired_.push_back(*self);
      if (hook) hook();
    };
  }

  EventId track(SimTime when, const std::shared_ptr<EventId>& self,
                EventId id) {
    *self = id;
    when_of_[id] = when;
    EXPECT_TRUE(ref_.emplace(when, id).second) << "id issued twice: " << id;
    EXPECT_TRUE(issued_.empty() || id > issued_.back())
        << "ids must increase in scheduling order";
    issued_.push_back(id);
    return id;
  }

  /// Drop tombstones while one is the earliest entry.
  void purge() {
    while (!ref_.empty() && tombs_.erase(ref_.begin()->second) > 0) {
      ref_.erase(ref_.begin());
    }
  }

  EventQueue q_;
  std::set<std::pair<SimTime, EventId>> ref_;  // live and tombstoned
  std::set<EventId> tombs_;
  std::unordered_map<EventId, SimTime> when_of_;
  std::vector<EventId> issued_;
  std::vector<EventId> fired_;
  SimTime now_ = 0;
};

/// One cancel drawn from every class the contract covers: a pending id, an
/// id that already fired, an id never issued, and the 0 sentinel.
EventId pick_cancel_victim(std::mt19937_64& rng, const Lockstep& ls) {
  const std::vector<EventId>& issued = ls.issued();
  switch (rng() % 4) {
    case 0:
      return issued.empty() ? 0 : issued[rng() % issued.size()];
    case 1: {
      const std::vector<EventId>& fired = ls.fired();
      return fired.empty() ? 0 : fired[rng() % fired.size()];
    }
    case 2:  // a sequence number far beyond anything scheduled
      return (issued.empty() ? 1 : issued.back()) + (1ull << 40);
    default:
      return 0;
  }
}

/// Pop until both sides are empty, checking after every step.
void drain(Lockstep& ls) {
  while (!ls.empty()) {
    ls.pop_and_run();
    ls.check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(ls.queue().pending_cancellations(), 0u);
  EXPECT_EQ(ls.queue().size(), 0u);
}

TEST(SchedulerDifferential, FuzzedScheduleCancelPopMatchExactly) {
  std::mt19937_64 rng(0xC0FFEEu);
  for (int trial = 0; trial < 8; ++trial) {
    Lockstep ls;
    double base = 0.0;
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t roll = rng() % 100;
      if (roll < 50) {
        // Clustered times with exact duplicates and far-future outliers.
        SimTime when = base + static_cast<double>(rng() % 16) * 0.25e-6;
        if (rng() % 20 == 0) when = base + 1e3;
        if (rng() % 50 == 0) when = base;  // exact tie
        ls.schedule(when);
        base += static_cast<double>(rng() % 3) * 0.1e-6;
      } else if (roll < 58) {
        // Same-time self-scheduling: the child runs at the parent's time,
        // after every event already pending at that time.
        const SimTime when = base + static_cast<double>(rng() % 4) * 0.25e-6;
        ls.schedule(when, [&ls, when] { ls.schedule(when); });
      } else if (roll < 64) {
        // Cancel from inside a running action: the victim is scheduled
        // later at the same time, so it is still pending when the action
        // runs and must never fire.
        const SimTime when = base + 0.5e-6;
        const auto victim = std::make_shared<EventId>(0);
        ls.schedule(when, [&ls, victim] { ls.cancel(*victim); });
        *victim = ls.schedule(when);
      } else if (roll < 82) {
        ls.cancel(pick_cancel_victim(rng, ls));
      } else if (!ls.empty()) {
        ls.pop_and_run();
      }
      ls.check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    drain(ls);
  }
}

// Tie-heavy regime: 10k+ events packed onto <= 8 distinct timestamps, with
// cancels before each drain and from inside running actions.
TEST(SchedulerDifferential, TieHeavyClusteredTimestampsMatchExactly) {
  std::mt19937_64 rng(0xBEEFu);
  Lockstep ls;
  double base = 0.0;
  for (int round = 0; round < 10; ++round) {
    std::vector<EventId> round_ids;
    for (int i = 0; i < 1200; ++i) {
      const SimTime when = base + static_cast<double>(rng() % 8) * 1e-6;
      if (i % 16 == 0) {
        // Every 16th action cancels a random event of this round, which
        // may be pending, already fired, or already cancelled.
        ls.schedule(when, [&ls, &round_ids, &rng] {
          ls.cancel(round_ids[rng() % round_ids.size()]);
        });
      } else {
        round_ids.push_back(ls.schedule(when));
      }
    }
    for (std::size_t i = 0; i < round_ids.size() / 7; ++i) {
      ls.cancel(round_ids[rng() % round_ids.size()]);
    }
    ls.check();
    drain(ls);
    if (::testing::Test::HasFatalFailure()) return;
    base += 1.0;
  }
  ASSERT_GT(ls.issued().size(), 10000u) << "meant to be a 10k+ event stress";
}

// The five constant delays of the packet pipeline: zero (a credit wake),
// the wire, the router, the router plus a packet's tail, and one packet's
// serialization.
constexpr SimTime kPipelineDelays[] = {0.0, 20e-9, 40e-9, 40e-9 + 4.096e-6,
                                       4.096e-6};

// Simulator-shaped traffic: most events are `now + d` through the lanes on
// the clock of the last fired event; arrivals go to the heap at arbitrary
// later times; watchdogs are armed through a lane and cancelled from inside
// a later action, or from outside, while they are still pending.
TEST(SchedulerDifferential, LanesOnAMonotoneClockMatchExactly) {
  std::mt19937_64 rng(0x1A4E5u);
  for (int trial = 0; trial < 6; ++trial) {
    Lockstep ls;
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t roll = rng() % 100;
      const SimTime d = kPipelineDelays[rng() % 5];
      if (roll < 35) {
        ls.schedule_in(ls.now(), d);
      } else if (roll < 47) {
        // A pipeline stage that schedules its successor when it fires.
        const SimTime next = kPipelineDelays[rng() % 5];
        ls.schedule_in(ls.now(), d,
                       [&ls, next] { ls.schedule_in(ls.now(), next); });
      } else if (roll < 53) {
        ls.schedule(ls.now() + static_cast<double>(rng() % 1000) * 1e-9);
      } else if (roll < 60) {
        // Arm a watchdog; an ACK-like event disarms it when it fires.
        const auto watchdog =
            std::make_shared<EventId>(ls.schedule_in(ls.now(), 50e-6));
        ls.schedule_in(ls.now(), d, [&ls, watchdog] { ls.cancel(*watchdog); });
      } else if (roll < 72) {
        ls.cancel(pick_cancel_victim(rng, ls));
      } else if (!ls.empty()) {
        ls.pop_and_run();
      }
      ls.check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    drain(ls);
  }
}

// Twelve delays contend for eight lanes: a delay finds its own lane, a free
// one, an empty one to re-key, or none (the heap). Bursts of pops drain some
// lanes empty so they are re-keyed while others still hold entries.
TEST(SchedulerDifferential, MoreDelaysThanLanesRekeyOrOverflowToTheHeap) {
  std::vector<SimTime> delays;
  for (int i = 0; i < EventQueue::kLanes + 4; ++i) {
    delays.push_back(static_cast<double>(i + 1) * 7e-9);
  }
  std::mt19937_64 rng(0x5EEDu);
  for (int trial = 0; trial < 6; ++trial) {
    Lockstep ls;
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t roll = rng() % 100;
      // Few distinct delays at a time, drifting over the run, so lanes
      // both fill and go empty.
      const std::size_t pick = (static_cast<std::size_t>(op / 300) +
                                rng() % (trial % 2 == 0 ? 3 : delays.size())) %
                               delays.size();
      if (roll < 45) {
        ls.schedule_in(ls.now(), delays[pick]);
      } else if (roll < 52) {
        const SimTime next = delays[(pick + 5) % delays.size()];
        ls.schedule_in(ls.now(), delays[pick],
                       [&ls, next] { ls.schedule_in(ls.now(), next); });
      } else if (roll < 60) {
        ls.cancel(pick_cancel_victim(rng, ls));
      } else if (roll < 62) {
        while (!ls.empty() && rng() % 16 != 0) ls.pop_and_run();
      } else if (!ls.empty()) {
        ls.pop_and_run();
      }
      ls.check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    drain(ls);
  }
}

// A lane holds one (time, key)-sorted run. A caller whose clock steps back
// produces an entry earlier than the lane's newest: it must wait on the
// heap, and later entries on the same delay may join the lane again.
TEST(SchedulerDifferential, ClockSteppingBackFallsBackToTheHeap) {
  {
    Lockstep ls;
    ls.schedule_in(10.0, 1.0);  // 11, opens the lane
    ls.schedule_in(5.0, 1.0);   // 6, behind the lane's tail
    ls.schedule_in(12.0, 1.0);  // 13, joins the lane again
    ls.schedule_in(10.0, 1.0);  // 11, behind the tail 13: ties the first
    ls.check();
    drain(ls);
    ASSERT_EQ(ls.fired().size(), 4u);
    EXPECT_EQ(ls.fired()[0], ls.issued()[1]);
    EXPECT_EQ(ls.fired()[1], ls.issued()[0]);
    EXPECT_EQ(ls.fired()[2], ls.issued()[3]);
    EXPECT_EQ(ls.fired()[3], ls.issued()[2]);
  }
  std::mt19937_64 rng(0xBAC4u);
  for (int trial = 0; trial < 4; ++trial) {
    Lockstep ls;
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t roll = rng() % 100;
      // A clock anywhere within 2 us of the last fired event, either side.
      const SimTime now =
          ls.now() + (static_cast<double>(rng() % 41) - 20.0) * 0.1e-6;
      if (roll < 55) {
        ls.schedule_in(now, kPipelineDelays[rng() % 5]);
      } else if (roll < 65) {
        ls.cancel(pick_cancel_victim(rng, ls));
      } else if (!ls.empty()) {
        ls.pop_and_run();
      }
      ls.check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    drain(ls);
  }
}

// Exact ties across the heap and several lanes: dyadic clocks and delays
// make every sum exact, so many entries share a time and must run in
// scheduling order whichever source holds them. Zero-delay children land
// at their parent's time, after every entry already pending there.
TEST(SchedulerDifferential, TiesAcrossLanesAndHeapRunInSchedulingOrder) {
  constexpr SimTime kDyadic[] = {0.0, 0.25, 0.5};
  std::mt19937_64 rng(0x71E5u);
  for (int trial = 0; trial < 4; ++trial) {
    Lockstep ls;
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t roll = rng() % 100;
      const SimTime d = kDyadic[rng() % 3];
      if (roll < 30) {
        ls.schedule_in(ls.now(), d);
      } else if (roll < 45) {
        ls.schedule(ls.now() + kDyadic[rng() % 3]);
      } else if (roll < 55) {
        ls.schedule_in(ls.now(), d, [&ls] { ls.schedule_in(ls.now(), 0.0); });
      } else if (roll < 62) {
        // The victim is scheduled after its canceller at the same time, so
        // it is still pending when the canceller runs and must never fire.
        const auto victim = std::make_shared<EventId>(0);
        ls.schedule_in(ls.now(), d, [&ls, victim] { ls.cancel(*victim); });
        *victim = ls.schedule_in(ls.now(), d);
      } else if (roll < 72) {
        ls.cancel(pick_cancel_victim(rng, ls));
      } else if (!ls.empty()) {
        ls.pop_and_run();
      }
      ls.check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    drain(ls);
  }
}

// ---------------------------------------------------------------------------
// Parsed<T> / nearest-name diagnostics

TEST(Parsed, EditDistanceAndNearestName) {
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("drb", "drb"), 0u);
  const std::vector<std::string_view> names{"uniform", "tornado"};
  EXPECT_EQ(nearest_name("tornadoe", names), "tornado");
  EXPECT_EQ(nearest_name("unifrom", names), "uniform");
  EXPECT_EQ(nearest_name("xyzzy-long-typo", names), "")
      << "wild typos must not produce absurd suggestions";
}

TEST(Parsed, ErrorCarriesDiagnosticAndThrows) {
  ParseError err;
  err.input = "tornadoe";
  err.kind = "pattern";
  err.message = "unknown pattern";
  err.suggestion = "tornado";
  EXPECT_EQ(err.what(),
            "unknown pattern 'tornadoe' (did you mean 'tornado'?)");
  Parsed<int> bad{err};
  EXPECT_FALSE(bad.ok());
  EXPECT_THROW(bad.value_or_throw(), std::invalid_argument);
  Parsed<int> good{7};
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or_throw(), 7);
}

TEST(Parsed, ParseNumberTakesOnlyWholeFiniteValues) {
  EXPECT_EQ(parse_number<double>("--rate", "4e8").value(), 4e8);
  EXPECT_EQ(parse_number<double>("--duration", "10e-3").value(), 10e-3);
  EXPECT_EQ(parse_number<double>("--gap", ".5").value(), 0.5);
  EXPECT_EQ(parse_number<int>("--seeds", "-3").value(), -3);
  EXPECT_EQ(parse_number<std::uint64_t>("--seed", "18446744073709551615")
                .value(),
            18446744073709551615ull);

  const Parsed<double> junk = parse_number<double>("--rate", "4e8x");
  ASSERT_FALSE(junk.ok());
  EXPECT_EQ(junk.error().what(), "--rate needs a finite number, got '4e8x'");
  for (const char* bad : {"", "nan", "inf", "-inf", "1e999", " 1", "3e-3ms"}) {
    EXPECT_FALSE(parse_number<double>("--duration", bad).ok()) << bad;
  }
  for (const char* bad : {"2.7", "1e3", "2x", "99999999999", ""}) {
    EXPECT_FALSE(parse_number<int>("--seeds", bad).ok()) << bad;
  }
  EXPECT_EQ(parse_number<std::uint64_t>("--seed", "-1").error().what(),
            "--seed needs a non-negative integer, got '-1'");
}

TEST(Parsed, FlagValueNeverTakesTheNextFlag) {
  std::vector<std::string> args = {"prog",    "--sdb-out",   "--no-manifest",
                                   "--rate",  "-5",          "--jobs=-1",
                                   "--trace-out=--x", "--trace-out"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const int argc = static_cast<int>(argv.size());

  int i = 1;
  const Parsed<std::string> flag_next = flag_value(argc, argv.data(), i);
  ASSERT_FALSE(flag_next.ok());
  EXPECT_EQ(flag_next.error().what(), "missing value for '--sdb-out'");
  EXPECT_EQ(i, 1) << "the next flag must stay to be parsed as a flag";

  i = 3;  // a single-dash value reaches the flag's own parser
  EXPECT_EQ(flag_value(argc, argv.data(), i).value(), "-5");
  EXPECT_EQ(i, 4);
  i = 5;
  EXPECT_EQ(flag_value(argc, argv.data(), i).value(), "-1");
  EXPECT_EQ(i, 5);
  i = 6;  // an inline value is taken as written
  EXPECT_EQ(flag_value(argc, argv.data(), i).value(), "--x");
  i = 7;
  EXPECT_EQ(flag_value(argc, argv.data(), i).error().what(),
            "missing value for '--trace-out'");
}

}  // namespace
}  // namespace prdrb
