// Distributed Routing Balancing (DRB) — the adaptive baseline PR-DRB builds
// on (Franco et al.; thesis §3.2).
//
// Per source/destination pair the policy maintains a metapath. Destinations
// acknowledge every message with the measured path latency; the source
// updates the corresponding MSP estimate, recomputes the aggregate metapath
// latency (Eq. 3.4) and reacts to the thresholds (§3.2.4):
//   * L(MP) > Threshold_High  -> open one more alternative MSP,
//   * within the band         -> keep the current set,
//   * L(MP) < Threshold_Low   -> close the worst alternative MSP.
// At injection time a path is drawn from the probability density function of
// inverse latencies (Eq. 3.6), so faster paths carry proportionally more
// messages.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "routing/adaptive.hpp"
#include "routing/metapath.hpp"
#include "routing/policy.hpp"
#include "util/random.hpp"

namespace prdrb {

struct DrbConfig {
  /// Metapath-latency thresholds (seconds) defining the L/M/H zones.
  SimTime threshold_low = 6e-6;
  SimTime threshold_high = 12e-6;

  /// Maximum number of simultaneously open paths, direct path included
  /// ("a maximum number of 4 alternative paths", §4.6.3).
  int max_paths = 4;

  /// EWMA smoothing for per-MSP latency estimates.
  double ewma_alpha = 0.25;

  /// Whether in-segment hop decisions are adaptive (least-occupied minimal
  /// port) or strictly deterministic. The thesis routes each MSP segment
  /// with "the original routing defined for the topology" (§3.2.3) — path
  /// diversity comes from the metapath, not from per-hop adaptivity — so
  /// the k-ary n-tree's own minimal routing is adaptive in the ascending
  /// phase (§2.1.5), so adaptive hop decisions are the default; the strict
  /// deterministic-segment variant is kept for ablation.
  bool adaptive_segments = true;

  /// Bound on the rolling contending-flow set kept per metapath.
  std::size_t recent_flow_cap = 16;
};

class DrbPolicy : public RoutingPolicy {
 public:
  /// ACKs observed after an expansion before its effect counts as
  /// evaluated even if the new path itself has not reported yet.
  static constexpr int kEvaluationQuorum = 8;

  explicit DrbPolicy(DrbConfig cfg = {}, std::uint64_t seed = 7);

  int select_port(RouterId r, const Packet& p,
                  std::span<const int> candidates) override;
  PathChoice choose_path(NodeId src, NodeId dst, SimTime now) override;
  void on_ack(NodeId at, const Packet& ack, SimTime now) override;
  bool wants_acks() const override { return true; }
  std::string name() const override { return "drb"; }

  // --- introspection (tests, benches, latency-map instrumentation) ---
  const Metapath* find_metapath(NodeId src, NodeId dst) const;
  int open_paths(NodeId src, NodeId dst) const;
  std::uint64_t total_expansions() const { return expansions_; }
  std::uint64_t total_contractions() const { return contractions_; }
  const DrbConfig& drb_config() const { return cfg_; }

 protected:
  /// Zone reaction (Fig. 3.12). The base DRB expands on High and shrinks on
  /// Low; PR-DRB overrides this to add the predictive procedures.
  virtual void react(Metapath& mp, NodeId src, NodeId dst, Zone previous,
                     Zone current, SimTime now);

  /// Hook for predictive ACKs injected by congested routers (§3.4.1); the
  /// base DRB has no use for them beyond logging the flows.
  virtual void on_predictive_ack(Metapath& mp, NodeId src, NodeId dst,
                                 const Packet& ack, SimTime now);

  Metapath& metapath(NodeId src, NodeId dst);

  /// Open the next candidate MSP (gradual expansion, §3.2.3). Returns true
  /// if a path was opened.
  bool expand(Metapath& mp, NodeId src, NodeId dst);

  /// Close the slowest alternative MSP (never the direct path).
  bool shrink(Metapath& mp, NodeId src, NodeId dst);

  /// Optimistic latency estimate for a new/unmeasured path.
  SimTime base_latency(NodeId src, NodeId dst, const MspCandidate& c) const;

  static std::uint64_t key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }

  DrbConfig cfg_;
  Rng rng_;
  std::unordered_map<std::uint64_t, Metapath> mps_;
  std::uint64_t expansions_ = 0;
  std::uint64_t contractions_ = 0;
};

}  // namespace prdrb
