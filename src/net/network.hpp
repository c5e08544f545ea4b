// Network: the executable model that ties topology, routers, NICs, routing
// policy, metrics and the congestion-detection hook to the event kernel.
//
// It implements the standard packet-delivery process of thesis Fig. 3.3:
// source-node injection (with DRB path selection), per-hop routing with
// latency accumulation (LU), header advancement at intermediate nodes (HDP),
// destination reassembly, and the ACK notification path. Router-side
// congestion detection (the CFD/GPA modules of Fig. 3.19) is pluggable via
// RouterMonitor so the predictive layer stays in src/core.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "net/config.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/router.hpp"
#include "net/topology.hpp"
#include "routing/policy.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace prdrb {

namespace obs {
class CounterRegistry;
class Probe;
}  // namespace obs

/// Observer of network events; the metrics collector implements this. A
/// network has at most one (set_observer); the observability sinks attach
/// through obs::Probe instead (bind_probe).
class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;
  virtual void on_packet_delivered(const Packet&, SimTime) {}
  virtual void on_message_delivered(NodeId /*src*/, NodeId /*dst*/,
                                    std::int64_t /*bytes*/,
                                    SimTime /*inject_time*/, SimTime /*now*/) {
  }
  virtual void on_port_wait(RouterId, int /*port*/, SimTime /*wait*/,
                            SimTime /*now*/) {}
  virtual void on_message_injected(NodeId /*src*/, NodeId /*dst*/,
                                   std::int64_t /*bytes*/, SimTime /*now*/) {}
  /// Fired when a packet commits to a router-to-router link (once per hop).
  virtual void on_packet_forwarded(const Packet&, RouterId /*router*/,
                                   SimTime /*now*/) {}
};

/// Router-side hook invoked at every transmit decision; the PR-DRB CFD/GPA
/// modules (src/core/cfd.*) implement this to log contending flows and to
/// emit predictive ACKs.
class RouterMonitor {
 public:
  virtual ~RouterMonitor() = default;
  /// `head` is the departing packet (mutable: the monitor may append the
  /// predictive header); `queue` is the remaining contents of the output
  /// queue it waited in.
  virtual void on_transmit(Network& net, RouterId r, int port, Packet& head,
                           SimTime wait,
                           const std::deque<Packet*>& queue) = 0;
};

/// Completion callback for full messages (used by the trace player).
using MessageHandler =
    std::function<void(NodeId src, NodeId dst, std::int64_t bytes,
                       MpiType type, std::int64_t seq, SimTime now)>;

class Network {
 public:
  Network(Simulator& sim, const Topology& topo, const NetConfig& cfg,
          RoutingPolicy& policy);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ----- configuration -----
  /// The metrics observer (nullptr clears).
  void set_observer(NetworkObserver* obs) { observer_ = obs; }
  void set_monitor(RouterMonitor* mon) { monitor_ = mon; }
  void set_message_handler(MessageHandler h) { on_message_ = std::move(h); }

  /// Bind the run's observability probe (obs/probe.hpp) and size its sinks
  /// for this network; nullptr detaches. The routing policy and the router
  /// monitor reach the probe through probe(). Detached, every hook site is
  /// a single not-taken branch.
  void bind_probe(obs::Probe* probe);
  obs::Probe* probe() const { return probe_; }

  /// Register this network's pull gauges ("net.*", DESIGN.md
  /// "Observability") with `reg`; they are evaluated only when the registry
  /// is sampled. The push counters belong to the probe.
  void register_gauges(obs::CounterRegistry& reg);

  // ----- send path -----

  /// Queue a message for injection at `src`'s NIC. The routing policy picks
  /// the multi-step path; messages larger than one packet are fragmented.
  /// Returns the message id.
  std::uint64_t send_message(NodeId src, NodeId dst, std::int64_t bytes,
                             MpiType type = MpiType::kNone,
                             std::int64_t seq = 0);

  /// Inject a control packet directly at router `r` (GPA module: predictive
  /// ACK injection by a congested router, §3.4.1).
  void inject_at_router(RouterId r, Packet&& p);

  // ----- state queries (used by adaptive policies and the DRB family) -----
  const Topology& topology() const { return topo_; }
  const NetConfig& config() const { return cfg_; }
  Simulator& simulator() { return sim_; }

  std::int64_t port_queue_bytes(RouterId r, int port) const {
    return routers_[static_cast<std::size_t>(r)].ports[static_cast<std::size_t>(port)].queue_bytes;
  }
  bool port_busy(RouterId r, int port) const {
    return routers_[static_cast<std::size_t>(r)].ports[static_cast<std::size_t>(port)].busy;
  }
  std::int64_t buffer_used(RouterId r, int vn) const {
    return routers_[static_cast<std::size_t>(r)].vn_used[static_cast<std::size_t>(vn)];
  }

  const Router& router(RouterId r) const { return routers_[static_cast<std::size_t>(r)]; }
  const Nic& nic(NodeId n) const { return nics_[static_cast<std::size_t>(n)]; }
  int num_routers() const { return static_cast<int>(routers_.size()); }
  int num_nodes() const { return static_cast<int>(nics_.size()); }

  RoutingPolicy& policy() { return policy_; }

  /// Total packets delivered so far (data only).
  std::uint64_t packets_delivered() const { return packets_delivered_; }

  /// The packet arena (pool occupancy introspection, DESIGN.md "Pooled
  /// event kernel").
  const PacketPool& packet_pool() const { return pool_; }

  /// Truncation bookkeeping for the bounded predictive header: called by
  /// the CFD module and the reassembly path whenever a contending flow is
  /// dropped because the header already carries max_contending_flows.
  void note_header_truncation();

  /// Contending-flow entries dropped by the max_contending_flows cap.
  std::uint64_t header_truncations() const { return header_truncations_; }

 private:
  // --- pipeline stages (packets travel as pooled handles; a stage either
  //     forwards the handle or releases it back to the pool) ---
  void nic_try_inject(NodeId n);
  void router_receive(RouterId r, Packet* p);
  void route_and_enqueue(RouterId r, Packet* p);
  void try_transmit(RouterId r, int port);
  void deliver(RouterId r, Packet* p);
  void complete_message(Nic& nic, const Packet& last, RxMessage&& msg);

  // --- buffer management ---
  void release(RouterId r, int vn, std::int64_t bytes);
  void add_waiter(RouterId r, int vn, Waiter w);
  void wake_waiters(RouterId r, int vn);

  Simulator& sim_;
  const Topology& topo_;
  NetConfig cfg_;
  RoutingPolicy& policy_;
  NetworkObserver* observer_ = nullptr;
  RouterMonitor* monitor_ = nullptr;
  MessageHandler on_message_;
  obs::Probe* probe_ = nullptr;

  PacketPool pool_;
  std::vector<Router> routers_;
  std::vector<Nic> nics_;
  std::int64_t vn_capacity_ = 0;

  std::uint64_t next_packet_id_ = 1;
  std::uint64_t next_message_id_ = 1;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t header_truncations_ = 0;
};

}  // namespace prdrb
