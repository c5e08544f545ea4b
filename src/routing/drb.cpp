#include "routing/drb.hpp"

#include <algorithm>
#include <cassert>

#include "net/network.hpp"
#include "obs/probe.hpp"

namespace prdrb {

DrbPolicy::DrbPolicy(DrbConfig cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {}

int DrbPolicy::select_port(RouterId r, const Packet& p,
                           std::span<const int> candidates) {
  if (candidates.size() == 1) return candidates[0];
  if (cfg_.adaptive_segments) {
    return AdaptivePolicy::least_occupied(*net_, r, p, candidates);
  }
  const int idx = net_->topology().deterministic_choice(
      r, p.source, p.current_target(), static_cast<int>(candidates.size()));
  return candidates[static_cast<std::size_t>(idx)];
}

SimTime DrbPolicy::base_latency(NodeId src, NodeId dst,
                                const MspCandidate& c) const {
  const Topology& topo = net_->topology();
  const NetConfig& nc = net_->config();
  int hops = 0;
  if (c.in1 == kInvalidNode && c.in2 == kInvalidNode) {
    hops = topo.distance(src, dst);
  } else if (c.in2 == kInvalidNode) {
    hops = topo.distance(src, c.in1) + topo.distance(c.in1, dst);
  } else {
    hops = topo.distance(src, c.in1) + topo.distance(c.in1, c.in2) +
           topo.distance(c.in2, dst);
  }
  // Uncontended VCT latency: one serialization plus per-hop pipeline delay
  // (Eq. 3.3 with zero queuing).
  return nc.serialization_time(nc.packet_bytes) +
         hops * (nc.wire_delay_s + nc.router_delay_s) + nc.router_delay_s;
}

Metapath& DrbPolicy::metapath(NodeId src, NodeId dst) {
  auto [it, inserted] = mps_.try_emplace(key(src, dst));
  Metapath& mp = it->second;
  if (inserted) {
    Msp direct;
    direct.latency = base_latency(src, dst, MspCandidate{});
    mp.paths.push_back(direct);
    mp.update_mp_latency();
    mp.zone = classify_zone(mp.mp_latency, cfg_.threshold_low,
                            cfg_.threshold_high);
  }
  return mp;
}

const Metapath* DrbPolicy::find_metapath(NodeId src, NodeId dst) const {
  auto it = mps_.find(key(src, dst));
  return it == mps_.end() ? nullptr : &it->second;
}

int DrbPolicy::open_paths(NodeId src, NodeId dst) const {
  const Metapath* mp = find_metapath(src, dst);
  return mp ? static_cast<int>(mp->paths.size()) : 1;
}

PathChoice DrbPolicy::choose_path(NodeId src, NodeId dst, SimTime) {
  Metapath& mp = metapath(src, dst);
  if (mp.paths.size() == 1) {
    return PathChoice{mp.paths[0].in1, mp.paths[0].in2, 0};
  }
  // Eq. 3.6: p(Cx) = (1/L_Cx) / sum_i (1/L_Ci).
  static thread_local std::vector<double> weights;
  weights.clear();
  for (const Msp& p : mp.paths) {
    weights.push_back(p.latency > 0 ? 1.0 / p.latency : 0.0);
  }
  const auto idx =
      static_cast<std::int32_t>(rng_.next_weighted(weights));
  const Msp& chosen = mp.paths[static_cast<std::size_t>(idx)];
  return PathChoice{chosen.in1, chosen.in2, idx};
}

void DrbPolicy::on_ack(NodeId at, const Packet& ack, SimTime now) {
  // `at` is the original message source; the ACK travelled dst -> src.
  const NodeId src = at;
  const NodeId dst = ack.source;
  Metapath& mp = metapath(src, dst);
  mp.note_flows(ack.contending, cfg_.recent_flow_cap);

  if (ack.type == PacketType::kPredictiveAck) {
    on_predictive_ack(mp, src, dst, ack, now);
    return;
  }

  ++mp.acks_received;
  if (mp.awaiting_evaluation) {
    ++mp.acks_since_expand;
    // The newest path reported back, or enough traffic has been observed
    // since the expansion: its effect is evaluated.
    if (ack.msp_index ==
            static_cast<std::int32_t>(mp.paths.size()) - 1 ||
        mp.acks_since_expand >= kEvaluationQuorum) {
      mp.awaiting_evaluation = false;
    }
  }
  if (ack.msp_index >= 0 &&
      ack.msp_index < static_cast<std::int32_t>(mp.paths.size())) {
    Msp& path = mp.paths[static_cast<std::size_t>(ack.msp_index)];
    if (path.acks == 0) {
      path.latency = ack.reported_e2e;
    } else {
      path.latency = cfg_.ewma_alpha * ack.reported_e2e +
                     (1.0 - cfg_.ewma_alpha) * path.latency;
    }
    ++path.acks;
  }

  mp.update_mp_latency();
  mp.note_sample(now, ack.reported_e2e);
  const Zone previous = mp.zone;
  const Zone current =
      classify_zone(mp.mp_latency, cfg_.threshold_low, cfg_.threshold_high);
  mp.zone = current;
  if (obs::Probe* p = net_->probe()) {
    p->zone_change(src, dst, previous, current, now);
  }
  react(mp, src, dst, previous, current, now);
}

void DrbPolicy::react(Metapath& mp, NodeId src, NodeId dst, Zone /*previous*/,
                      Zone current, SimTime /*now*/) {
  // Base DRB (§3.2.4): one gradual step per evaluation.
  if (current == Zone::kHigh) {
    expand(mp, src, dst);
  } else if (current == Zone::kLow) {
    shrink(mp, src, dst);
  }
}

void DrbPolicy::on_predictive_ack(Metapath&, NodeId, NodeId, const Packet&,
                                  SimTime) {
  // Plain DRB ignores early router notifications (it has no predictive
  // machinery); the flows were already folded into the rolling set.
}

bool DrbPolicy::expand(Metapath& mp, NodeId src, NodeId dst) {
  if (static_cast<int>(mp.paths.size()) >= cfg_.max_paths) return false;
  // Gradual opening: evaluate the previous path's effect before the next.
  if (mp.awaiting_evaluation) return false;
  const Topology& topo = net_->topology();
  // Walk the candidate rings until an unopened MSP appears (§3.2.3:
  // 1-hop intermediate nodes first, then 2-hop, ...).
  for (int attempts = 0; attempts < 64; ++attempts) {
    if (mp.pending_next >= mp.pending.size()) {
      ++mp.ring;
      // Append-style enumeration into the metapath's reusable buffer: once
      // its capacity covers the largest ring, re-expansion after a shrink
      // allocates nothing (interposer-proven in routing_test).
      mp.pending.clear();
      topo.msp_candidates(src, dst, mp.ring, mp.pending);
      mp.pending_next = 0;
      if (mp.pending.empty()) {
        if (mp.ring > topo.num_nodes()) break;  // rings exhausted
        continue;
      }
    }
    const MspCandidate c = mp.pending[mp.pending_next++];
    if (mp.has_route(c)) continue;
    if (c.in1 == src || c.in1 == dst || c.in2 == src || c.in2 == dst) {
      continue;
    }
    Msp msp;
    msp.in1 = c.in1;
    msp.in2 = c.in2;
    // Seed the estimate with the mean of the current paths (never below the
    // uncontended minimum): an unproven path must not drag the Eq. 3.4
    // aggregate straight into the Low zone before it is ever measured.
    double mean = 0;
    for (const Msp& p : mp.paths) mean += p.latency;
    mean /= static_cast<double>(mp.paths.size());
    msp.latency = std::max(base_latency(src, dst, c), mean);
    mp.paths.push_back(msp);
    mp.update_mp_latency();
    mp.awaiting_evaluation = true;
    mp.acks_since_expand = 0;
    ++mp.expansions;
    ++expansions_;
    if (obs::Probe* p = net_->probe()) {
      p->metapath_open(src, dst, static_cast<int>(mp.paths.size()),
                       net_->simulator().now());
    }
    return true;
  }
  return false;
}

bool DrbPolicy::shrink(Metapath& mp, NodeId src, NodeId dst) {
  if (mp.paths.size() <= 1) return false;
  // Drop the slowest alternative path; the direct path (index 0) persists.
  std::size_t worst = 1;
  for (std::size_t i = 2; i < mp.paths.size(); ++i) {
    if (mp.paths[i].latency > mp.paths[worst].latency) worst = i;
  }
  mp.paths.erase(mp.paths.begin() + static_cast<long>(worst));
  mp.update_mp_latency();
  ++mp.contractions;
  ++contractions_;
  if (obs::Probe* p = net_->probe()) {
    p->metapath_close(src, dst, static_cast<int>(mp.paths.size()),
                      net_->simulator().now());
  }
  if (mp.paths.size() == 1) {
    // Fully contracted: rewind the candidate cursor so the next congestion
    // episode re-opens the same near-minimal paths ("DRB response to the
    // repetitive bursty traffic is always the same", §4.6.2).
    mp.ring = 0;
    mp.pending.clear();
    mp.pending_next = 0;
  }
  return true;
}

}  // namespace prdrb
