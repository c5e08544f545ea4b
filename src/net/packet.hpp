// Packet formats for the PR-DRB network (thesis §3.3.1, Figs. 3.16-3.18).
//
// Data packets carry a *multiple header*: besides source and destination they
// name up to two intermediate nodes (IN1, IN2) that define a Multi-Step Path
// (MSP), plus a `header_id` cursor that the Header-Detection-and-Processing
// (HDP) unit of each router advances when the packet reaches the router of
// the current intermediate target. The packet also accumulates its queuing
// (contention) latency hop by hop — the Latency Update (LU) module — and,
// above the congestion threshold, the list of contending flows observed in
// the congested output queue (the predictive header, Fig. 3.18).
#pragma once

#include <cstdint>
#include <string>

#include "util/small_vector.hpp"
#include "util/types.hpp"

namespace prdrb {

/// One source/destination pair racing for a router resource (Fig. 3.13).
struct ContendingFlow {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;

  friend bool operator==(const ContendingFlow&, const ContendingFlow&) =
      default;
  friend auto operator<=>(const ContendingFlow&, const ContendingFlow&) =
      default;
};

/// Contending-flow list of the predictive header. The inline capacity
/// matches the default `NetConfig::max_contending_flows` cap, so a packet's
/// header never heap-allocates in the default configuration.
using ContendingList = SmallVector<ContendingFlow, 8>;

/// Outcome of appending one flow to a bounded predictive header.
enum class FlowAppend : std::uint8_t {
  kAdded,      // new entry recorded
  kDuplicate,  // already present (dedup)
  kCapped,     // dropped: the header is full (counted as a truncation)
};

/// Deduplicating, capped append (the paper carries only the top `n`
/// contenders, Fig. 3.18 — `cap` is NetConfig::max_contending_flows).
FlowAppend append_flow(ContendingList& list, const ContendingFlow& f, int cap);

enum class PacketType : std::uint8_t {
  kData,           // application payload (Fig. 3.16)
  kAck,            // destination-based notification (Fig. 3.17)
  kPredictiveAck,  // router-based early notification (§3.4.1)
};

/// MPI call that originated a data packet; used by the trace player to keep
/// the logical execution order and by the analysis framework (Table 2.1).
enum class MpiType : std::uint8_t {
  kNone = 0,
  kSend,
  kIsend,
  kRecv,
  kIrecv,
  kWait,
  kWaitall,
  kSendrecv,
  kBcast,
  kReduce,
  kAllreduce,
  kBarrier,
};

struct Packet {
  std::uint64_t id = 0;       // unique per simulation
  std::uint64_t message_id = 0;  // fragments of one message share this
  PacketType type = PacketType::kData;

  NodeId source = kInvalidNode;
  NodeId destination = kInvalidNode;

  // Multi-step path header: up to two intermediate nodes; kInvalidNode when
  // the slot is unused (direct minimal path).
  NodeId intermediate1 = kInvalidNode;
  NodeId intermediate2 = kInvalidNode;

  // Cursor over {IN1, IN2, destination}; advanced by the HDP module.
  // 0 -> heading for IN1 (or destination if no INs), 1 -> IN2, 2 -> dest.
  std::uint8_t header_id = 0;

  // Which MSP of the source's metapath produced this packet; echoed in the
  // ACK so the source can credit the measured latency to the right path.
  std::int32_t msp_index = -1;

  std::int32_t size_bytes = 0;

  // Fragmentation (messages larger than one packet).
  std::int32_t fragment_index = 0;
  std::int32_t total_fragments = 1;
  bool final_fragment = true;  // the F bit

  // P bit: a router already injected a predictive ACK for this packet, so
  // the destination must not duplicate the contending-flow notification.
  bool predictive_bit = false;

  MpiType mpi_type = MpiType::kNone;
  std::int64_t mpi_sequence = 0;

  SimTime inject_time = 0;    // creation at the source NIC
  SimTime path_latency = 0;   // accumulated queuing delay (LU module)
  SimTime queued_at = 0;      // scratch: enqueue instant at the current hop

  // Scorecard phase timers. Written only by obs::Probe while a scorecard
  // is attached, so other runs never touch them (zero-cost contract).
  SimTime inject_wait = 0;    // wait in the source NIC injection queue
  SimTime transmit_time = 0;  // accumulated serialization time across hops
  SimTime stall_wait = 0;     // share of queueing spent credit-stalled
  SimTime stall_since = -1;   // scratch: current stall start (<0: none)

  // ACK payload: what the notification reports back to the source
  // (Fig. 3.17 "Path Latency" field). `reported_latency` is the accumulated
  // queuing latency of the acknowledged message, `reported_e2e` its full
  // creation-to-delivery latency.
  SimTime reported_latency = 0;
  SimTime reported_e2e = 0;

  // Predictive header (only populated above the congestion threshold;
  // bounded by NetConfig::max_contending_flows).
  ContendingList contending;
  RouterId congested_router = kInvalidRouter;

  // For ACKs: id of the acknowledged message (lets FR-DRB disarm the
  // watchdog it armed when that message was sent).
  std::uint64_t acked_message_id = 0;

  /// Terminal the packet is currently heading for, given `header_id`.
  NodeId current_target() const;

  /// Virtual network (escape-channel class, §3.2.8): one per MSP segment so
  /// the segment graph stays acyclic, plus a separate class for ACK traffic.
  int virtual_network() const;

  bool is_ack() const { return type != PacketType::kData; }

  std::string describe() const;
};

/// Number of virtual networks used by the deadlock-avoidance scheme:
/// segments S->IN1, IN1->IN2, IN2->D plus the ACK class.
inline constexpr int kNumVirtualNetworks = 4;

inline NodeId Packet::current_target() const {
  if (header_id == 0 && intermediate1 != kInvalidNode) return intermediate1;
  if (header_id <= 1 && intermediate2 != kInvalidNode) return intermediate2;
  return destination;
}

inline int Packet::virtual_network() const {
  if (is_ack()) return kNumVirtualNetworks - 1;
  return header_id;  // 0..2, one escape class per MSP segment
}

}  // namespace prdrb
