// Tests for the event kernel's dispatch contract: EventQueue runs in
// lockstep against a test-local reference — a std::set of (time, EventId)
// where cancel erases — under random schedule/cancel/pop sequences, tie-heavy
// timestamps, and actions that schedule or cancel from inside a dispatch.
// Also the Parsed<T> typed-error layer the factories and the numeric
// command-line flags return.
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
/// minimum, so the whole fired sequence matches the reference order.
class Lockstep {
 public:
  Lockstep() = default;
  Lockstep(const Lockstep&) = delete;  // queued actions capture `this`
  Lockstep& operator=(const Lockstep&) = delete;

  /// Schedule at `when` in both. `hook` (if any) runs inside the action,
  /// after the firing is recorded, so it can schedule or cancel mid-dispatch.
  EventId schedule(SimTime when, std::function<void()> hook = {}) {
    const auto self = std::make_shared<EventId>(0);
    const EventId id = q_.schedule(when, [this, self, hook = std::move(hook)] {
      fired_.push_back(*self);
      if (hook) hook();
    });
    *self = id;
    when_of_[id] = when;
    EXPECT_TRUE(ref_.emplace(when, id).second) << "id issued twice: " << id;
    EXPECT_TRUE(issued_.empty() || id > issued_.back())
        << "ids must increase in scheduling order";
    issued_.push_back(id);
    return id;
  }

  /// Cancel in both; the reference erases only a still-pending id.
  void cancel(EventId id) {
    q_.cancel(id);
    if (const auto it = when_of_.find(id); it != when_of_.end()) {
      ref_.erase({it->second, id});
    }
  }

  /// Pop the earliest event from both and run it.
  void pop_and_run() {
    ASSERT_FALSE(ref_.empty());
    const auto want = *ref_.begin();
    ref_.erase(ref_.begin());
    EventQueue::Fired fired = q_.pop();
    ASSERT_EQ(fired.time, want.first);
    const std::size_t before = fired_.size();
    fired.action();
    ASSERT_EQ(fired_.size(), before + 1);
    ASSERT_EQ(fired_[before], want.second) << "fired the wrong event";
  }

  void check() const {
    ASSERT_EQ(q_.live(), ref_.size());
    ASSERT_EQ(q_.empty(), ref_.empty());
    ASSERT_EQ(q_.next_time(),
              ref_.empty() ? kTimeInfinity : ref_.begin()->first);
    ASSERT_LE(q_.pending_cancellations(), q_.size());
  }

  const EventQueue& queue() const { return q_; }
  bool empty() const { return ref_.empty(); }
  const std::vector<EventId>& issued() const { return issued_; }
  const std::vector<EventId>& fired() const { return fired_; }

 private:
  EventQueue q_;
  std::set<std::pair<SimTime, EventId>> ref_;
  std::unordered_map<EventId, SimTime> when_of_;
  std::vector<EventId> issued_;
  std::vector<EventId> fired_;
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
    while (!ls.empty()) {
      ls.pop_and_run();
      ls.check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(ls.queue().pending_cancellations(), 0u) << "trial " << trial;
    EXPECT_EQ(ls.queue().size(), 0u) << "trial " << trial;
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
    while (!ls.empty()) {
      ls.pop_and_run();
      ls.check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    base += 1.0;
  }
  ASSERT_GT(ls.issued().size(), 10000u) << "meant to be a 10k+ event stress";
  EXPECT_EQ(ls.queue().pending_cancellations(), 0u);
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

}  // namespace
}  // namespace prdrb
