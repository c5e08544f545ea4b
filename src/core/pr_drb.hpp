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

/// Shared predictive machinery: the solution database plus the install/save
/// procedures, reusable by every DRB-family policy.
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

  SolutionDatabase& db() { return db_; }
  const SolutionDatabase& db() const { return db_; }
  const PrDrbConfig& config() const { return cfg_; }
  std::uint64_t installs() const { return installs_; }
  std::uint64_t trend_triggers() const { return trend_triggers_; }
  void count_trend_trigger() { ++trend_triggers_; }

 private:
  PrDrbConfig cfg_;
  SolutionDatabase db_;
  std::uint64_t installs_ = 0;
  std::uint64_t trend_triggers_ = 0;
};

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
