#include "core/cfd.hpp"

#include <algorithm>
#include <vector>

#include "obs/probe.hpp"

namespace prdrb {

CongestionDetector::CongestionDetector(NotificationMode mode) : mode_(mode) {}

void CongestionDetector::select_contenders(const Packet& head,
                                           const std::deque<Packet*>& queue,
                                           int max_flows) {
  // Accumulate queued bytes per flow: the "average of occupation of every
  // unique source" heuristic of §3.2.2, realized as byte shares, in order of
  // first appearance, head first.
  shares_.clear();
  auto account = [&](const Packet& p) {
    if (p.is_ack()) return;
    const ContendingFlow f{p.source, p.destination};
    for (Share& s : shares_) {
      if (s.flow == f) {
        s.bytes += p.size_bytes;
        return;
      }
    }
    shares_.push_back(Share{f, p.size_bytes, shares_.size()});
  };
  account(head);
  for (const Packet* p : queue) account(*p);

  // The largest shares first, ties to the earlier appearance. That order is
  // total, so partial_sort's prefix is the one a stable sort by bytes gives.
  const auto top = shares_.begin() + static_cast<long>(std::min(
      shares_.size(), static_cast<std::size_t>(std::max(max_flows, 0))));
  std::partial_sort(shares_.begin(), top, shares_.end(),
                    [](const Share& a, const Share& b) {
                      if (a.bytes != b.bytes) return a.bytes > b.bytes;
                      return a.first < b.first;
                    });
  flows_.clear();
  for (auto s = shares_.begin(); s != top; ++s) flows_.push_back(s->flow);
}

void CongestionDetector::on_transmit(Network& net, RouterId r, int port,
                                     Packet& head, SimTime wait,
                                     const std::deque<Packet*>& queue) {
  if (head.is_ack()) return;  // control traffic is not monitored
  const NetConfig& cfg = net.config();
  if (wait < cfg.router_contention_threshold_s) return;
  ++detections_;

  select_contenders(head, queue, cfg.max_contending_flows);
  const SimTime now = net.simulator().now();
  obs::Probe* probe = net.probe();
  if (probe) probe->congestion(r, port, wait, flows_.size(), now);
  if (flows_.empty()) return;

  if (mode_ == NotificationMode::kDestinationBased) {
    // Fill the predictive header of the transiting packet; the destination
    // copies it into the ACK (§3.2.2).
    head.congested_router = r;
    for (const ContendingFlow& f : flows_) {
      if (append_flow(head.contending, f, cfg.max_contending_flows) ==
          FlowAppend::kCapped) {
        ++truncated_flows_;
        net.note_header_truncation();
      }
    }
    return;
  }

  // Router-based: early notification via predictive ACKs injected here
  // (GPA module). The P bit tells the destination the flows were already
  // reported, so its ACK carries only the latency (§3.4.2).
  head.predictive_bit = true;
  for (const ContendingFlow& f : flows_) {
    const std::uint64_t k =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) |
        static_cast<std::uint32_t>(f.src);
    auto [it, inserted] = last_notify_.try_emplace(k, -1.0);
    if (!inserted && now - it->second < cooldown_) continue;
    it->second = now;

    Packet ack;
    ack.type = PacketType::kPredictiveAck;
    // The predictive ACK notifies the *source* of the contending flow; the
    // `source` field names the flow's destination so the receiver can map
    // the notification onto the right metapath.
    ack.source = f.dst;
    ack.destination = f.src;
    ack.size_bytes = cfg.ack_bytes;
    ack.reported_latency = wait;
    ack.congested_router = r;
    ack.contending.assign(flows_.begin(), flows_.end());
    net.inject_at_router(r, std::move(ack));
    ++predictive_acks_;
    if (probe) probe->predictive_ack(r, f.src, now);
  }
}

}  // namespace prdrb
