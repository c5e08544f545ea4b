// Passive router state (thesis Fig. 3.19 / §4.1.2).
//
// The router model is output-queued virtual cut-through: every output port
// owns a FIFO of whole packets; a packet leaves the queue when the port is
// idle *and* the downstream router has buffer space in the packet's virtual
// network (lossless credit-style backpressure). The active behaviour — the
// Routing & Arbitration unit, the Latency Update module and the HDP header
// processing — is implemented by Network, which drives these state objects
// from the event loop.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "net/packet.hpp"
#include "util/types.hpp"

namespace prdrb {

/// An upstream sender blocked on this router's buffer space.
struct Waiter {
  enum class Kind : std::uint8_t { kRouterPort, kNic };
  Kind kind = Kind::kRouterPort;
  RouterId router = kInvalidRouter;  // kRouterPort: upstream router
  int port = -1;                     // kRouterPort: upstream output port
  NodeId nic = kInvalidNode;         // kNic: blocked terminal
};

struct OutputPort {
  // FIFO of pooled packet handles; the cells live in Network's PacketPool.
  std::deque<Packet*> queue;
  std::int64_t queue_bytes = 0;
  bool busy = false;      // currently serializing a packet onto the link
  bool waiting = false;   // registered as a waiter downstream

  // Full-resolution link totals (the streaming telemetry's test reference).
  std::uint64_t packets_sent = 0;
  SimTime busy_time = 0;      // total serialization time on this link

  // Times this port blocked on downstream buffer space (credit stall);
  // surfaced through the observability counter registry (src/obs).
  std::uint64_t credit_stalls = 0;
};

struct Router {
  RouterId id = kInvalidRouter;
  std::vector<OutputPort> ports;

  // Buffer occupancy per virtual network (deadlock-avoidance classes).
  std::array<std::int64_t, kNumVirtualNetworks> vn_used{};

  // Senders blocked on each virtual network's buffer space.
  std::array<std::vector<Waiter>, kNumVirtualNetworks> waiters;

  // Packets this router sent on, over every port.
  std::uint64_t packets_forwarded = 0;

  Router() = default;
  Router(RouterId rid, int radix) : id(rid), ports(radix) {}
};

}  // namespace prdrb
