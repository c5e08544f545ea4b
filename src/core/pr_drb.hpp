// Predictive and Distributed Routing Balancing — the paper's contribution.
//
// PR-DRB layers a predictive module over the DRB zone reactions (Fig. 3.12):
//   * transition into the High zone: the current congestion situation (the
//     signature of recently notified contending flows) is looked up in the
//     best-solutions database; on an approximate match (>= 80 % similarity)
//     the saved alternative-path set is installed wholesale, skipping DRB's
//     gradual path opening ("maximum path expansion is directly done",
//     §4.6.3); on a miss, normal gradual expansion proceeds;
//   * transition High -> Medium: congestion is controlled — the path set
//     that controlled it is saved (or updates a worse stored solution);
//   * transition into Low: path-closing procedures, as in DRB.
//
// The same predictive engine also upgrades FR-DRB (thesis §4.8.4 shows the
// policy "could be positively adapted to work with any current or future
// DRB implementation"): PrFrDrbPolicy consults the database both on ACK
// evaluations and on watchdog expirations.
#pragma once

#include <cstdint>
#include <utility>

#include "core/cfd.hpp"
#include "core/solution_db.hpp"
#include "routing/drb.hpp"
#include "routing/fr_drb.hpp"

namespace prdrb {

struct PrDrbConfig {
  /// Approximate-matching threshold for situation recognition (§3.2.8).
  /// Also the threshold the solution database's prefix-filter index is
  /// built for (DESIGN.md "Indexed solution database").
  double similarity = 0.8;

  /// Solution-database capacity: maximum stored solutions before
  /// least-recently-used eviction kicks in. 0 = unbounded (the thesis
  /// setting; production-scale sweeps should bound it).
  std::size_t sdb_capacity = 0;

  /// Notification scheme for the router-side CFD module.
  NotificationMode notification = NotificationMode::kDestinationBased;

  /// Latency-trend extension (thesis §5.2, further work): when the
  /// least-squares trend of recent latency samples predicts crossing
  /// Threshold_High within `trend_horizon`, react as if the High zone had
  /// already been entered — predicting congestion "before it arises".
  bool trend_prediction = false;
  SimTime trend_horizon = 200e-6;
};

/// Shared predictive machinery: the solution database, the install/save
/// procedures and the zone reaction built on them, reusable by every
/// DRB-family policy.
class PredictiveEngine {
 public:
  explicit PredictiveEngine(PrDrbConfig cfg) : cfg_(cfg) {
    db_.set_index_threshold(cfg_.similarity);
    db_.set_capacity(cfg_.sdb_capacity);
  }

  /// Entering the High zone: look the situation up; on a hit install the
  /// saved paths into `mp` and return true. The outcome (hit, miss, empty
  /// probe) is raised on `probe`, the owning policy's network probe
  /// (nullptr when none is bound).
  bool enter_high(Metapath& mp, NodeId src, NodeId dst, SimTime now,
                  obs::Probe* probe);

  /// High -> Medium: congestion controlled; persist the winning path set
  /// (raised on `probe` as an SDB save).
  void calmed(const Metapath& mp, NodeId src, NodeId dst, SimTime now,
              obs::Probe* probe);

  /// Trend extension: true when the sample trend predicts the Eq. 3.4
  /// aggregate will cross `threshold_high` within the configured horizon.
  bool predicts_congestion(const Metapath& mp, SimTime threshold_high) const;

  /// The zone reaction (Fig. 3.12) of a predictive policy whose metapath
  /// `mp` moved from `previous` to `current`. `expand` and `shrink` are the
  /// policy's gradual opening and closing steps for this pair.
  template <typename Expand, typename Shrink>
  void react(Metapath& mp, NodeId src, NodeId dst, Zone previous,
             Zone current, SimTime now, SimTime threshold_high,
             obs::Probe* probe, Expand&& expand, Shrink&& shrink);

  /// Treat the pair as congested now (early router notification, FR-DRB
  /// watchdog expiry): move `mp` to High and react to the entry.
  template <typename Expand>
  void force_high(Metapath& mp, NodeId src, NodeId dst, SimTime now,
                  obs::Probe* probe, Expand&& expand);

  SolutionDatabase& db() { return db_; }
  const SolutionDatabase& db() const { return db_; }
  const PrDrbConfig& config() const { return cfg_; }
  std::uint64_t installs() const { return installs_; }
  std::uint64_t trend_triggers() const { return trend_triggers_; }

 private:
  PrDrbConfig cfg_;
  SolutionDatabase db_;
  std::uint64_t installs_ = 0;
  std::uint64_t trend_triggers_ = 0;
};

template <typename Expand, typename Shrink>
void PredictiveEngine::react(Metapath& mp, NodeId src, NodeId dst,
                             Zone previous, Zone current, SimTime now,
                             SimTime threshold_high, obs::Probe* probe,
                             Expand&& expand, Shrink&& shrink) {
  // §5.2 trend extension: while still in the working zone, a rising latency
  // trend that projects across Threshold_High triggers the High reaction
  // early (speculative congestion avoidance).
  if (current == Zone::kMedium && previous != Zone::kHigh &&
      predicts_congestion(mp, threshold_high)) {
    ++trend_triggers_;
    mp.zone = current = Zone::kHigh;
  }
  if (current == Zone::kHigh) {
    // M -> H: congestion detected — first look for an already analyzed
    // situation; only open paths gradually on a database miss. Still
    // congested: continue the gradual opening procedure. If the installed
    // solution was wrong for this (actually new) pattern, this is also where
    // PR-DRB "detects that our solution is not good and starts the standard
    // opening path procedures" (§3.5).
    if (previous == Zone::kHigh || !enter_high(mp, src, dst, now, probe)) {
      expand();
    }
  } else if (previous == Zone::kHigh && current == Zone::kMedium) {
    // H -> M: good paths found; feed the saved-paths database.
    calmed(mp, src, dst, now, probe);
  } else if (current == Zone::kLow) {
    mp.installed_since_low = false;  // quiet phase: rearm the predictor
    shrink();
  }
}

template <typename Expand>
void PredictiveEngine::force_high(Metapath& mp, NodeId src, NodeId dst,
                                  SimTime now, obs::Probe* probe,
                                  Expand&& expand) {
  // The High branch of react(), entered from whatever zone `mp` was in.
  if (std::exchange(mp.zone, Zone::kHigh) == Zone::kHigh ||
      !enter_high(mp, src, dst, now, probe)) {
    expand();
  }
}

class PrDrbPolicy : public DrbPolicy {
 public:
  explicit PrDrbPolicy(DrbConfig cfg = {}, PrDrbConfig pcfg = {},
                       std::uint64_t seed = 7);

  std::string name() const override { return "pr-drb"; }

  PredictiveEngine& engine() { return engine_; }
  const PredictiveEngine& engine() const { return engine_; }

 protected:
  void react(Metapath& mp, NodeId src, NodeId dst, Zone previous,
             Zone current, SimTime now) override;
  void on_predictive_ack(Metapath& mp, NodeId src, NodeId dst,
                         const Packet& ack, SimTime now) override;

 private:
  PredictiveEngine engine_;
};

/// Predictive Fast-Response DRB (the "FR-DRB predictive" series of
/// Fig. 4.27): FR-DRB's watchdog plus the PR-DRB solution database.
class PrFrDrbPolicy : public FrDrbPolicy {
 public:
  explicit PrFrDrbPolicy(DrbConfig cfg = {}, FrDrbConfig fr = {},
                         PrDrbConfig pcfg = {}, std::uint64_t seed = 7);

  std::string name() const override { return "pr-fr-drb"; }

  PredictiveEngine& engine() { return engine_; }

 protected:
  void react(Metapath& mp, NodeId src, NodeId dst, Zone previous,
             Zone current, SimTime now) override;
  void on_predictive_ack(Metapath& mp, NodeId src, NodeId dst,
                         const Packet& ack, SimTime now) override;
  void on_watchdog(NodeId src, NodeId dst, SimTime now) override;

 private:
  PredictiveEngine engine_;
};

}  // namespace prdrb
