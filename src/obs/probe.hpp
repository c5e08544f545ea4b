// Probe: the one path from the simulator's hook sites to the observability
// sinks (tracer, flight recorder, scorecard, stream, and the network's push
// counters). It has one member per event — the packet pipeline's injects,
// hops, stalls and deliveries, and PR-DRB's control plane (CFD detections
// and predictive ACKs at routers; metapath open/close, zone changes and SDB
// outcomes at sources, thesis §3.3–3.4) — and each member does the fan-out:
// which sinks hear the event, the FlightRecorder a/b/c/v encoding and the
// scorecard's per-packet phase-timer writes all live in probe.cpp.
//
// A run binds its probe once (Network::bind_probe). DrbPolicy and
// CongestionDetector reach it through the Network they hold,
// PredictiveEngine through its owning policy, so every hook site is one
// `if (probe)` branch: detached, one not-taken branch per site, and the
// packet phase fields are never written. The sink set is fixed, so the
// probe is a plain class with no virtual dispatch.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/types.hpp"

namespace prdrb {
class Network;
struct Packet;
enum class Zone : std::uint8_t;
}  // namespace prdrb

namespace prdrb::obs {

class Counter;
class CounterRegistry;
class FlightRecorder;
class Scorecard;
class StreamTelemetry;
class Tracer;

class Probe {
 public:
  /// The run's sinks, all borrowed and all optional. `counters` registers
  /// the push counters net.link.{packets,bytes}, net.ack.bytes,
  /// net.header.{overhead_bytes,truncated_flows} and net.credit.stalls.
  struct Sinks {
    Tracer* tracer = nullptr;
    FlightRecorder* recorder = nullptr;
    Scorecard* scorecard = nullptr;
    StreamTelemetry* stream = nullptr;
    CounterRegistry* counters = nullptr;
  };

  explicit Probe(const Sinks& sinks);

  /// Size the stream for `net` (called by Network::bind_probe).
  void bind(const Network& net);

  // --- packet pipeline (Network) ---
  void inject(NodeId src, NodeId dst, std::int64_t bytes, SimTime now);
  /// `p` starts serializing out of its source NIC for `ser` seconds.
  void nic_transmit(Packet& p, SimTime now, SimTime ser);
  void inject_stall(NodeId n, SimTime now);
  /// `p` leaves router `r`'s output queue, before the CFD sees it.
  void hop(const Packet& p, RouterId r, SimTime now);
  /// `head` found the downstream buffer full. `new_stall` is set when the
  /// port starts waiting; every blocked attempt stamps the stall start.
  void credit_stall(RouterId r, int port, Packet& head, bool new_stall,
                    SimTime now);
  /// `p` commits to the link for `ser` seconds, after the CFD.
  void transmit(RouterId r, int port, Packet& p, SimTime now, SimTime ser);
  void deliver(const Packet& p, SimTime now);
  void header_truncation();

  // --- router control plane (CongestionDetector) ---
  void congestion(RouterId r, int port, SimTime wait, std::size_t flows,
                  SimTime now);
  void predictive_ack(RouterId r, NodeId to, SimTime now);

  // --- source control plane (DrbPolicy, PredictiveEngine) ---
  /// Gradual (reactive) expansion; `paths` are now open.
  void metapath_open(NodeId src, NodeId dst, int paths, SimTime now);
  void metapath_close(NodeId src, NodeId dst, int paths, SimTime now);
  void zone_change(NodeId src, NodeId dst, Zone previous, Zone current,
                   SimTime now);
  /// The SDB was probed before any contending flow was known.
  void sdb_empty_probe(NodeId src, NodeId dst, SimTime now);
  /// A saved solution of `paths` paths was installed (the predictive open).
  void sdb_hit(NodeId src, NodeId dst, int paths, SimTime now);
  void sdb_miss(NodeId src, NodeId dst, SimTime now);
  void sdb_save(NodeId src, NodeId dst, int paths, SimTime now);

 private:
  Tracer* tracer_;
  FlightRecorder* recorder_;
  Scorecard* scorecard_;
  StreamTelemetry* stream_;
  // Push-counter cells, owned by the registry; all null without one.
  Counter* link_packets_ = nullptr;
  Counter* link_bytes_ = nullptr;
  Counter* ack_bytes_ = nullptr;
  Counter* header_overhead_bytes_ = nullptr;
  Counter* header_truncated_flows_ = nullptr;
  Counter* credit_stalls_ = nullptr;
};

}  // namespace prdrb::obs
