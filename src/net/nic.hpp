// Terminal-node network interface (thesis §4.1.1).
//
// The NIC owns an injection queue fed by traffic generators or the trace
// player, serializes packets onto the terminal-to-router link with the same
// backpressure rules as router ports, and reassembles fragmented messages on
// the receive side. Message completion triggers the latency-notification ACK
// (destination-based scheme, §3.2.2).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "util/types.hpp"

namespace prdrb {

/// Reassembly state for one in-flight message at the receiver.
struct RxMessage {
  std::int32_t fragments_received = 0;
  std::int32_t total_fragments = 0;
  std::int64_t bytes = 0;
  SimTime inject_time = 0;
  SimTime max_path_latency = 0;  // worst queuing latency over the fragments
  std::int32_t msp_index = -1;
  bool predictive_bit = false;
  MpiType mpi_type = MpiType::kNone;
  std::int64_t mpi_sequence = 0;
  RouterId congested_router = kInvalidRouter;
  ContendingList contending;  // union across fragments (bounded by config)
};

struct Nic {
  NodeId node = kInvalidNode;

  // Pending pooled packets; cells are owned by Network's PacketPool.
  std::deque<Packet*> inject_queue;
  bool injecting = false;  // serializing a packet onto the local link
  bool waiting = false;    // blocked on the local router's buffer space

  // Receive-side reassembly, keyed by globally unique message id.
  std::unordered_map<std::uint64_t, RxMessage> rx;

  // Offered/accepted-load accounting (throughput metric, §4.2).
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_received = 0;

  // Times injection blocked on the local router's buffer space (credit
  // stall); surfaced through the observability counter registry (src/obs).
  std::uint64_t inject_stalls = 0;

  // Whole messages fully reassembled at this NIC (watchdog progress signal).
  std::uint64_t messages_completed = 0;
};

}  // namespace prdrb
