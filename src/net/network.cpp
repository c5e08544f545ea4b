#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/counters.hpp"
#include "obs/probe.hpp"

namespace prdrb {

Network::Network(Simulator& sim, const Topology& topo, const NetConfig& cfg,
                 RoutingPolicy& policy)
    : sim_(sim), topo_(topo), cfg_(cfg), policy_(policy) {
  routers_.reserve(static_cast<std::size_t>(topo.num_routers()));
  for (RouterId r = 0; r < topo.num_routers(); ++r) {
    routers_.emplace_back(r, topo.radix(r));
  }
  nics_.resize(static_cast<std::size_t>(topo.num_nodes()));
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    nics_[static_cast<std::size_t>(n)].node = n;
  }
  vn_capacity_ = cfg_.vn_capacity(kNumVirtualNetworks);
  policy_.attach(*this);
}

std::uint64_t Network::send_message(NodeId src, NodeId dst,
                                    std::int64_t bytes, MpiType type,
                                    std::int64_t seq) {
  const std::uint64_t mid = next_message_id_++;
  const SimTime now = sim_.now();
  if (observer_) observer_->on_message_injected(src, dst, bytes, now);
  if (probe_) probe_->inject(src, dst, bytes, now);

  if (src == dst) {
    // Local communication never enters the network (thesis §2.2.6: traffic
    // "performed almost locally within source routers" sees no gain).
    sim_.schedule_in(0, [this, src, dst, bytes, type, seq] {
      if (on_message_) on_message_(src, dst, bytes, type, seq, sim_.now());
    });
    return mid;
  }

  const PathChoice pc = policy_.choose_path(src, dst, now);
  std::int64_t remaining = std::max<std::int64_t>(bytes, 1);
  const auto total_frags = static_cast<std::int32_t>(
      (remaining + cfg_.packet_bytes - 1) / cfg_.packet_bytes);

  Nic& nic = nics_[static_cast<std::size_t>(src)];
  for (std::int32_t i = 0; i < total_frags; ++i) {
    Packet* p = pool_.acquire();
    p->id = next_packet_id_++;
    p->message_id = mid;
    p->type = PacketType::kData;
    p->source = src;
    p->destination = dst;
    p->intermediate1 = pc.in1;
    p->intermediate2 = pc.in2;
    p->msp_index = pc.msp_index;
    p->size_bytes =
        static_cast<std::int32_t>(std::min<std::int64_t>(remaining, cfg_.packet_bytes));
    remaining -= p->size_bytes;
    p->fragment_index = i;
    p->total_fragments = total_frags;
    p->final_fragment = (i == total_frags - 1);
    p->mpi_type = type;
    p->mpi_sequence = seq;
    p->inject_time = now;
    p->queued_at = now;
    nic.inject_queue.push_back(p);
  }
  policy_.on_message_sent(src, dst, mid, pc, now);
  nic_try_inject(src);
  return mid;
}

void Network::inject_at_router(RouterId r, Packet&& p) {
  // GPA module (§3.3.2): a congested router injects a predictive ACK.
  // Control injection is forced (may transiently exceed the VN partition);
  // the partition check at every transmit keeps the system draining.
  Packet* cell = pool_.acquire();
  *cell = std::move(p);
  cell->inject_time = sim_.now();
  cell->queued_at = sim_.now();
  cell->id = next_packet_id_++;
  cell->message_id = next_message_id_++;
  routers_[static_cast<std::size_t>(r)].vn_used[static_cast<std::size_t>(cell->virtual_network())] += cell->size_bytes;
  router_receive(r, cell);
}

void Network::nic_try_inject(NodeId n) {
  Nic& nic = nics_[static_cast<std::size_t>(n)];
  if (nic.injecting || nic.inject_queue.empty()) return;
  Packet& head = *nic.inject_queue.front();
  const RouterId r0 = topo_.node_router(n);
  const int vn = head.virtual_network();
  Router& target = routers_[static_cast<std::size_t>(r0)];
  if (target.vn_used[static_cast<std::size_t>(vn)] + head.size_bytes > vn_capacity_) {
    if (!nic.waiting) {
      nic.waiting = true;
      ++nic.inject_stalls;
      if (probe_) probe_->inject_stall(n, sim_.now());
      Waiter w;
      w.kind = Waiter::Kind::kNic;
      w.nic = n;
      add_waiter(r0, vn, w);
    }
    return;
  }

  Packet* p = nic.inject_queue.front();
  nic.inject_queue.pop_front();
  target.vn_used[static_cast<std::size_t>(vn)] += p->size_bytes;
  nic.injecting = true;
  ++nic.packets_injected;

  const SimTime ser = cfg_.serialization_time(p->size_bytes);
  if (probe_) probe_->nic_transmit(*p, sim_.now(), ser);
  sim_.schedule_in(ser, [this, n] {
    nics_[static_cast<std::size_t>(n)].injecting = false;
    nic_try_inject(n);
  });
  // Cut-through: the head reaches the first router after the wire delay and
  // can be routed while the tail is still serializing. The lambda captures
  // the pooled handle (16 bytes of state) — no packet copy.
  sim_.schedule_in(cfg_.wire_delay_s, [this, r0, p] { router_receive(r0, p); });
}

void Network::router_receive(RouterId r, Packet* p) {
  // HDP module: advance the multi-header cursor past every intermediate
  // target attached to this router (the IN is a waypoint — reaching its
  // router completes the MSP segment, §3.3.1).
  const int vn_before = p->virtual_network();
  while (true) {
    const NodeId t = p->current_target();
    if (t != p->destination && topo_.node_router(t) == r) {
      ++p->header_id;
    } else {
      break;
    }
  }
  const int vn_after = p->virtual_network();
  if (vn_after != vn_before) {
    // The packet changes escape-channel class between MSP segments
    // (§3.2.8). Transfer its buffer accounting; the new class may
    // transiently exceed its partition — it cannot block mid-network.
    routers_[static_cast<std::size_t>(r)].vn_used[static_cast<std::size_t>(vn_after)] += p->size_bytes;
    release(r, vn_before, p->size_bytes);
  }

  const NodeId target = p->current_target();
  if (target == p->destination && topo_.node_router(target) == r) {
    // Delivery: the message leaves through the local port once its tail
    // arrives (one serialization time behind the head).
    const SimTime tail = cfg_.serialization_time(p->size_bytes);
    sim_.schedule_in(cfg_.router_delay_s + tail,
                     [this, r, p] { deliver(r, p); });
    return;
  }
  sim_.schedule_in(cfg_.router_delay_s,
                   [this, r, p] { route_and_enqueue(r, p); });
}

void Network::route_and_enqueue(RouterId r, Packet* p) {
  static thread_local std::vector<int> candidates;
  candidates.clear();
  topo_.minimal_ports(r, p->current_target(), candidates);
  assert(!candidates.empty() && "target must be reachable");
  const int port = policy_.select_port(r, *p, candidates);
  assert(std::find(candidates.begin(), candidates.end(), port) !=
         candidates.end());
  OutputPort& out = routers_[static_cast<std::size_t>(r)].ports[static_cast<std::size_t>(port)];
  p->queued_at = sim_.now();
  out.queue_bytes += p->size_bytes;
  out.queue.push_back(p);
  try_transmit(r, port);
}

void Network::try_transmit(RouterId r, int port) {
  Router& router = routers_[static_cast<std::size_t>(r)];
  OutputPort& out = router.ports[static_cast<std::size_t>(port)];
  if (out.busy || out.queue.empty()) return;

  Packet& head = *out.queue.front();
  const PortTarget tgt = topo_.neighbor(r, port);
  assert(tgt.valid() && "minimal routing never selects a dangling port");
  const int vn = head.virtual_network();
  Router& downstream = routers_[static_cast<std::size_t>(tgt.router)];
  if (downstream.vn_used[static_cast<std::size_t>(vn)] + head.size_bytes > vn_capacity_) {
    const bool new_stall = !out.waiting;
    if (new_stall) {
      out.waiting = true;
      ++out.credit_stalls;
      Waiter w;
      w.kind = Waiter::Kind::kRouterPort;
      w.router = r;
      w.port = port;
      add_waiter(tgt.router, vn, w);
    }
    if (probe_) probe_->credit_stall(r, port, head, new_stall, sim_.now());
    return;
  }

  Packet* p = out.queue.front();
  out.queue.pop_front();
  out.queue_bytes -= p->size_bytes;
  downstream.vn_used[static_cast<std::size_t>(vn)] += p->size_bytes;

  const SimTime now = sim_.now();
  const SimTime wait = now - p->queued_at;
  p->path_latency += wait;  // LU module: accumulate contention latency
  ++out.packets_sent;
  ++router.packets_forwarded;
  if (observer_) {
    observer_->on_port_wait(r, port, wait, now);
    observer_->on_packet_forwarded(*p, r, now);
  }
  if (probe_) probe_->hop(*p, r, now);
  if (monitor_) monitor_->on_transmit(*this, r, port, *p, wait, out.queue);

  out.busy = true;
  const SimTime ser = cfg_.serialization_time(p->size_bytes);
  out.busy_time += ser;
  if (probe_) probe_->transmit(r, port, *p, now, ser);
  const std::int64_t bytes = p->size_bytes;
  sim_.schedule_in(ser, [this, r, port, vn, bytes] {
    routers_[static_cast<std::size_t>(r)].ports[static_cast<std::size_t>(port)].busy = false;
    release(r, vn, bytes);
    try_transmit(r, port);
  });
  sim_.schedule_in(cfg_.wire_delay_s,
                   [this, rt = tgt.router, p] { router_receive(rt, p); });
}

void Network::deliver(RouterId r, Packet* p) {
  release(r, p->virtual_network(), p->size_bytes);
  const SimTime now = sim_.now();
  if (probe_) probe_->deliver(*p, now);

  if (p->is_ack()) {
    policy_.on_ack(p->destination, *p, now);
    pool_.release(p);
    return;
  }

  Nic& nic = nics_[static_cast<std::size_t>(p->destination)];
  ++nic.packets_received;
  ++packets_delivered_;
  if (observer_) observer_->on_packet_delivered(*p, now);

  RxMessage& msg = nic.rx[p->message_id];
  if (msg.total_fragments == 0) {
    msg.total_fragments = p->total_fragments;
    msg.inject_time = p->inject_time;
    msg.msp_index = p->msp_index;
    msg.mpi_type = p->mpi_type;
    msg.mpi_sequence = p->mpi_sequence;
  }
  ++msg.fragments_received;
  msg.bytes += p->size_bytes;
  msg.max_path_latency = std::max(msg.max_path_latency, p->path_latency);
  msg.predictive_bit = msg.predictive_bit || p->predictive_bit;
  if (p->congested_router != kInvalidRouter) {
    msg.congested_router = p->congested_router;
  }
  for (const ContendingFlow& f : p->contending) {
    if (append_flow(msg.contending, f, cfg_.max_contending_flows) ==
        FlowAppend::kCapped) {
      note_header_truncation();
    }
  }

  if (msg.fragments_received == msg.total_fragments) {
    RxMessage done = std::move(msg);
    nic.rx.erase(p->message_id);
    complete_message(nic, *p, std::move(done));
  }
  pool_.release(p);
}

void Network::complete_message(Nic& nic, const Packet& last, RxMessage&& msg) {
  const SimTime now = sim_.now();
  ++nic.messages_completed;
  if (observer_) {
    observer_->on_message_delivered(last.source, last.destination, msg.bytes,
                                    msg.inject_time, now);
  }
  if (on_message_) {
    on_message_(last.source, last.destination, msg.bytes, msg.mpi_type,
                msg.mpi_sequence, now);
  }

  if (cfg_.acks_enabled && policy_.wants_acks()) {
    // Destination-based notification (§3.2.2): send the measured path
    // latency — and the contending-flow set, unless a router already
    // notified it via a predictive ACK (the P bit, §3.4.2) — back to the
    // source.
    Packet* ack = pool_.acquire();
    ack->id = next_packet_id_++;
    ack->message_id = next_message_id_++;
    ack->type = PacketType::kAck;
    ack->source = last.destination;
    ack->destination = last.source;
    ack->size_bytes = cfg_.ack_bytes;
    ack->msp_index = msg.msp_index;
    ack->reported_latency = msg.max_path_latency;
    // Normalize multi-packet messages to a single-packet-equivalent path
    // latency (subtract the back-to-back serialization of the trailing
    // fragments) so the DRB thresholds — calibrated on the Table 4.2/4.3
    // packet size — compare like with like across message sizes.
    const SimTime tail_serialization =
        (msg.total_fragments - 1) * cfg_.serialization_time(cfg_.packet_bytes);
    ack->reported_e2e =
        std::max(now - msg.inject_time - tail_serialization, 0.0);
    ack->mpi_sequence = msg.mpi_sequence;
    ack->acked_message_id = last.message_id;
    ack->inject_time = now;
    ack->queued_at = now;
    ack->congested_router = msg.congested_router;
    if (!msg.predictive_bit) ack->contending = std::move(msg.contending);
    nic.inject_queue.push_back(ack);
    nic_try_inject(nic.node);
  }
}

void Network::note_header_truncation() {
  ++header_truncations_;
  if (probe_) probe_->header_truncation();
}

void Network::release(RouterId r, int vn, std::int64_t bytes) {
  Router& router = routers_[static_cast<std::size_t>(r)];
  router.vn_used[static_cast<std::size_t>(vn)] -= bytes;
  wake_waiters(r, vn);
}

void Network::add_waiter(RouterId r, int vn, Waiter w) {
  routers_[static_cast<std::size_t>(r)].waiters[static_cast<std::size_t>(vn)].push_back(w);
}

void Network::bind_probe(obs::Probe* probe) {
  probe_ = probe;
  if (probe) probe->bind(*this);
}

void Network::register_gauges(obs::CounterRegistry& reg) {
  // Pull-style gauges: evaluated only when the registry is sampled, so
  // they add nothing to the event-processing hot path.
  reg.gauge("net.link.utilization", [this] {
    std::size_t busy = 0, total = 0;
    for (const Router& r : routers_) {
      for (const OutputPort& port : r.ports) {
        busy += port.busy ? 1u : 0u;
        ++total;
      }
    }
    return total ? static_cast<double>(busy) / static_cast<double>(total)
                 : 0.0;
  });
  reg.gauge("net.queue.bytes", [this] {
    std::int64_t sum = 0;
    for (const Router& r : routers_) {
      for (const OutputPort& port : r.ports) sum += port.queue_bytes;
    }
    return static_cast<double>(sum);
  });
  reg.gauge("net.buffer.vn_bytes", [this] {
    std::int64_t sum = 0;
    for (const Router& r : routers_) {
      for (const std::int64_t used : r.vn_used) sum += used;
    }
    return static_cast<double>(sum);
  });
  reg.gauge("net.inject.backlog_packets", [this] {
    std::size_t sum = 0;
    for (const Nic& nic : nics_) sum += nic.inject_queue.size();
    return static_cast<double>(sum);
  });
  reg.gauge("net.delivered.packets", [this] {
    return static_cast<double>(packets_delivered_);
  });
  // Per-router queue occupancy: one gauge per router, the counter-registry
  // view of the contention surface (thesis latency-map figures).
  for (RouterId r = 0; r < static_cast<RouterId>(routers_.size()); ++r) {
    reg.gauge("net.router." + std::to_string(r) + ".queue_bytes", [this, r] {
      std::int64_t sum = 0;
      for (const OutputPort& port :
           routers_[static_cast<std::size_t>(r)].ports) {
        sum += port.queue_bytes;
      }
      return static_cast<double>(sum);
    });
  }
}

void Network::wake_waiters(RouterId r, int vn) {
  auto& list = routers_[static_cast<std::size_t>(r)].waiters[static_cast<std::size_t>(vn)];
  if (list.empty()) return;
  // Scheduling runs nothing synchronously, so the list can be walked in
  // place and cleared: it keeps its capacity, and the next stall's
  // add_waiter does not allocate.
  for (const Waiter& w : list) {
    sim_.schedule_in(0, [this, w] {
      if (w.kind == Waiter::Kind::kRouterPort) {
        routers_[static_cast<std::size_t>(w.router)].ports[static_cast<std::size_t>(w.port)].waiting = false;
        try_transmit(w.router, w.port);
      } else {
        nics_[static_cast<std::size_t>(w.nic)].waiting = false;
        nic_try_inject(w.nic);
      }
    });
  }
  list.clear();
}

}  // namespace prdrb
