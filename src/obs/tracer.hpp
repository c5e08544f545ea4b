// Packet-lifecycle tracer: Chrome trace_event JSON (Perfetto-loadable).
//
// The tracer records the life of every packet — inject at the source NIC,
// one span per hop (queuing wait on the router's output port), delivery at
// the destination — plus the PR-DRB control-plane events: congestion
// detections at routers (CFD), predictive-ACK injections (GPA), metapath
// open/close reactions, and solution-database hits/misses/saves. Events
// land on three Perfetto "processes":
//
//   pid 1 "network"  — router tracks (tid = router id): hop / congestion /
//                      predictive-ack
//   pid 2 "nodes"    — terminal tracks (tid = node id): inject / deliver
//   pid 3 "routing"  — per-source tracks (tid = source node): mp-open /
//                      mp-close / sdb-hit / sdb-miss / sdb-save
//
// Every event arrives through obs::Probe (obs/probe.hpp), the run's one
// path from the hook sites to its sinks: Network raises inject/hop/deliver,
// CongestionDetector congestion/predictive-ack, and DrbPolicy and
// PredictiveEngine the metapath and SDB events. Without a probe bound, each
// site costs one not-taken branch (bench_micro_components measures the
// attached cost).
//
// Determinism: events are appended in simulation order by a single-threaded
// simulation and formatted via obs/json number rules, so a seeded run
// produces a byte-identical trace at any --jobs count (the traced run owns
// its tracer; see tests/obs_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace prdrb {
struct Packet;
}  // namespace prdrb

namespace prdrb::obs {

class Tracer {
 public:
  /// Hard cap on buffered events; past it new events are counted in
  /// dropped() but not stored (deterministic: the same prefix survives).
  void set_limit(std::size_t max_events) { limit_ = max_events; }

  std::size_t events() const { return events_; }
  std::size_t dropped() const { return dropped_; }

  // --- packet lifecycle ---
  void inject(NodeId src, NodeId dst, std::int64_t bytes, SimTime now);
  /// One span per hop: the packet's wait in router `r`'s output queue.
  void hop(const Packet& p, RouterId r, SimTime now);
  void deliver(const Packet& p, SimTime now);

  // --- PR-DRB control plane ---
  void congestion_detected(RouterId r, int port, SimTime wait,
                           std::size_t flows, SimTime now);
  void predictive_ack(RouterId r, NodeId to, SimTime now);
  /// A routing-track event of source `src` toward `dst`: "mp-open",
  /// "mp-close", "sdb-hit", "sdb-miss" or "sdb-save". `paths` (the open or
  /// installed path count) is omitted when negative.
  void routing(std::string_view name, NodeId src, NodeId dst, int paths,
               SimTime now);

  // --- output ---
  /// Serialize the complete Chrome trace document.
  void write(std::ostream& os) const;
  std::string to_json() const;
  /// Write to `path`; false on IO failure (warns, never throws).
  bool write_file(const std::string& path) const;

  void clear();

 private:
  // Perfetto process ids for the three event families.
  static constexpr int kPidNetwork = 1;
  static constexpr int kPidNodes = 2;
  static constexpr int kPidRouting = 3;

  /// True when the event should be recorded (advances drop accounting).
  bool admit();
  /// Append one instant event ("ph":"i"); args_json is the inner object
  /// body ("\"a\":1,\"b\":2") or empty. `name` goes through obs/json
  /// escaping — never concatenated raw into the document.
  void instant(std::string_view name, int pid, std::int64_t tid, SimTime ts,
               const std::string& args_json);
  /// Append one complete-span event ("ph":"X").
  void span(std::string_view name, int pid, std::int64_t tid, SimTime ts,
            SimTime dur, const std::string& args_json);
  /// The shared event writer: a span when `dur` is set, else an instant.
  void append(std::string_view name, int pid, std::int64_t tid, SimTime ts,
              const SimTime* dur, const std::string& args_json);

  std::size_t limit_ = 4'000'000;
  std::size_t events_ = 0;
  std::size_t dropped_ = 0;
  std::string buf_;  // comma-separated event objects
};

}  // namespace prdrb::obs
