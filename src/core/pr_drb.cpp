#include "core/pr_drb.hpp"

#include "obs/probe.hpp"

namespace prdrb {

bool PredictiveEngine::enter_high(Metapath& mp, NodeId src, NodeId dst,
                                  SimTime now, obs::Probe* probe) {
  if (mp.installed_since_low) return false;  // once per episode
  const FlowSignature sig = FlowSignature::from(mp.recent_flows);
  // Congestion crossed the threshold before any contending-flow
  // notification arrived: the lookup cannot match anything (the database
  // refuses empty signatures). Surfaced for stall forensics.
  if (sig.empty() && probe) probe->sdb_empty_probe(src, dst, now);
  SavedSolution* sol = db_.lookup(src, dst, sig, cfg_.similarity);
  if (!sol) {
    if (probe) probe->sdb_miss(src, dst, now);
    return false;
  }
  // Re-apply the best known solution wholesale: the saved latency estimates
  // seed the path-selection PDF so traffic spreads immediately the way it
  // did when the solution was found.
  mp.paths = sol->paths;
  mp.update_mp_latency();
  // Wholesale installation: no gradual-opening evaluation gate applies
  // ("maximum path expansion is directly done", §4.6.3).
  mp.awaiting_evaluation = false;
  mp.acks_since_expand = 0;
  mp.installed_since_low = true;
  ++installs_;
  if (probe) {
    probe->sdb_hit(src, dst, static_cast<int>(mp.paths.size()), now);
  }
  return true;
}

void PredictiveEngine::calmed(const Metapath& mp, NodeId src, NodeId dst,
                              SimTime now, obs::Probe* probe) {
  if (mp.paths.size() <= 1) return;  // nothing beyond the direct path
  db_.save(src, dst, FlowSignature::from(mp.recent_flows), mp.paths,
           mp.mp_latency, cfg_.similarity);
  if (probe) {
    probe->sdb_save(src, dst, static_cast<int>(mp.paths.size()), now);
  }
}

bool PredictiveEngine::predicts_congestion(const Metapath& mp,
                                           SimTime threshold_high) const {
  if (!cfg_.trend_prediction) return false;
  const double slope = mp.latency_trend();
  if (slope <= 0) return false;
  // Project the zone metric forward over the horizon; a predicted crossing
  // of Threshold_High counts as congestion already (§5.2 trend analysis).
  return mp.mp_latency + slope * cfg_.trend_horizon > threshold_high;
}

// ---------------------------------------------------------------------------
// PrDrbPolicy

PrDrbPolicy::PrDrbPolicy(DrbConfig cfg, PrDrbConfig pcfg, std::uint64_t seed)
    : DrbPolicy(cfg, seed), engine_(pcfg) {}

void PrDrbPolicy::react(Metapath& mp, NodeId src, NodeId dst, Zone previous,
                        Zone current, SimTime now) {
  engine_.react(
      mp, src, dst, previous, current, now, drb_config().threshold_high,
      net_->probe(), [&] { expand(mp, src, dst); },
      [&] { shrink(mp, src, dst); });
}

void PrDrbPolicy::on_predictive_ack(Metapath& mp, NodeId src, NodeId dst,
                                    const Packet& /*ack*/, SimTime now) {
  // Early router-based notification: speculatively treat the pair as
  // congested before the metapath latency itself crosses the threshold.
  engine_.force_high(mp, src, dst, now, net_->probe(),
                     [&] { expand(mp, src, dst); });
}

// ---------------------------------------------------------------------------
// PrFrDrbPolicy

PrFrDrbPolicy::PrFrDrbPolicy(DrbConfig cfg, FrDrbConfig fr, PrDrbConfig pcfg,
                             std::uint64_t seed)
    : FrDrbPolicy(cfg, fr, seed), engine_(pcfg) {}

void PrFrDrbPolicy::react(Metapath& mp, NodeId src, NodeId dst, Zone previous,
                          Zone current, SimTime now) {
  engine_.react(
      mp, src, dst, previous, current, now, drb_config().threshold_high,
      net_->probe(), [&] { expand(mp, src, dst); },
      [&] { shrink(mp, src, dst); });
}

void PrFrDrbPolicy::on_predictive_ack(Metapath& mp, NodeId src, NodeId dst,
                                      const Packet& /*ack*/, SimTime now) {
  engine_.force_high(mp, src, dst, now, net_->probe(),
                     [&] { expand(mp, src, dst); });
}

void PrFrDrbPolicy::on_watchdog(NodeId src, NodeId dst, SimTime now) {
  // Watchdog expiry = congestion without an ACK. Consult the database
  // before falling back to FR-DRB's immediate single-path opening.
  Metapath& mp = metapath(src, dst);
  engine_.force_high(mp, src, dst, now, net_->probe(),
                     [&] { expand(mp, src, dst); });
}

}  // namespace prdrb
