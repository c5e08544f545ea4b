// Flight recorder + stall watchdog: post-mortem debugging for livelock and
// capacity-cliff scenarios.
//
// FlightRecorder is a fixed-capacity ring of recent control-plane events
// (CFD congestion detections, predictive ACKs, metapath open/close, SDB
// hits/misses/saves, injection and credit stalls), fed by obs::Probe.
// Recording is O(1) and allocation-free after construction, so it can ride
// the hot path; when the ring wraps, the oldest events fall off — by design
// it answers "what was the control plane doing right before things
// stopped?".
//
// StallWatchdog watches virtual-time delivery progress. Polled at the
// run's window boundaries, it fires when no packet has been delivered for a
// configurable window while the fabric still holds undelivered work; a
// finalize() pass catches true deadlocks (a fully blocked network stops
// generating events, so the run ends before the window elapses).
// Either way it dumps exactly once — the ring, a per-router queue snapshot,
// and event-queue stats — to a stream (stderr by default) and keeps the
// JSON ("prdrb-flightdump-v1") for file export. The dump contains only
// virtual-time state, so it is byte-identical at any --jobs count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace prdrb {
class Network;
class Simulator;
}  // namespace prdrb

namespace prdrb::obs {

class FlightRecorder {
 public:
  enum class EventKind : std::uint8_t {
    kCongestion,     // a=router, b=port, v=wait_s
    kPredictiveAck,  // a=router, b=to
    kMetapathOpen,   // a=src, b=dst, c=open_paths
    kMetapathClose,  // a=src, b=dst, c=open_paths
    kSdbHit,         // a=src, b=dst, c=paths
    kSdbMiss,        // a=src, b=dst
    kSdbSave,        // a=src, b=dst, c=paths
    kInjectStall,    // a=node
    kCreditStall,    // a=router, b=port
    kSdbEmptyProbe,  // a=src, b=dst (lookup with no contending flows seen)
  };

  struct ControlEvent {
    SimTime t = 0;
    EventKind kind = EventKind::kCongestion;
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int32_t c = 0;
    double v = 0;
  };

  explicit FlightRecorder(std::size_t capacity = 256);

  /// O(1), no allocation: overwrites the oldest slot once full.
  void record(EventKind kind, SimTime t, std::int32_t a = 0,
              std::int32_t b = 0, std::int32_t c = 0, double v = 0);

  std::size_t capacity() const { return ring_.size(); }
  /// Events currently held (<= capacity).
  std::size_t size() const { return std::min(recorded_, ring_.size()); }
  /// Events ever recorded (including those that fell off the ring).
  std::uint64_t recorded() const { return recorded_; }

  /// Events oldest-to-newest (size() entries).
  std::vector<ControlEvent> snapshot() const;

  static const char* kind_name(EventKind k);

  void clear();

 private:
  std::vector<ControlEvent> ring_;
  std::size_t head_ = 0;  // next slot to write
  std::uint64_t recorded_ = 0;
};

class StallWatchdog {
 public:
  /// Watch `net` (and `sim`'s event queue) for delivery stalls longer than
  /// `window` virtual seconds. Both must outlive finalize(). `recorder` is
  /// optional ring context for the dump (nullptr = no ring section).
  StallWatchdog(const Network& net, const Simulator& sim,
                const FlightRecorder* recorder, SimTime window);

  /// Where the human-readable dump goes (default: stderr). nullptr
  /// silences the stream copy; the JSON stays available via dump_json().
  void set_stream(std::ostream* os) { stream_ = os; }

  /// Progress check at virtual time `now`; a scenario run calls it at
  /// every window boundary after the first.
  void poll(SimTime now);

  /// End-of-run check: a truly deadlocked network generates no events, so
  /// the run ends before `window` elapses — this catches the leftover
  /// undelivered work. Call after the run returns and before the network
  /// is destroyed.
  void finalize();

  bool fired() const { return fired_; }
  SimTime window() const { return window_; }
  /// The one dump ("prdrb-flightdump-v1"), empty until fired.
  const std::string& dump_json() const { return dump_; }
  /// Write the dump to `path`; false when not fired or on IO failure.
  bool write_dump_file(const std::string& path) const;

 private:
  bool has_pending_work() const;
  void dump(SimTime now, const char* reason);

  const Network& net_;
  const Simulator& sim_;
  const FlightRecorder* recorder_;
  SimTime window_;
  std::ostream* stream_;

  std::uint64_t last_delivered_ = 0;
  SimTime last_progress_ = 0;
  bool fired_ = false;
  std::string dump_;
};

}  // namespace prdrb::obs
