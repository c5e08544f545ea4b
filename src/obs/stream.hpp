// Streaming telemetry: the one per-link telemetry sink, with bounded memory
// for long-horizon runs.
//
// Every router output port (= link) gets exact cumulative busy seconds,
// credit stalls and transmit counts, plus windowed history over a fixed
// budget — never O(links × sim-time), which is what rules out keeping
// full-resolution series on radix-36 fat-tree runs with ~100k links:
//
//   * per link, the finest `ring_windows` windows (width `window_s`) are
//     kept exactly; when the ring overflows, the two OLDEST windows merge
//     2:1 into the next coarser level (width doubles per level), and the
//     oldest pair of the top level folds into a per-link "ancient" running
//     aggregate. Totals are exact at every resolution; memory is
//     O(links × ring_windows × levels), never O(links × sim-time).
//   * link-utilization quantiles ride the existing log-bucket
//     LatencyHistogram (metrics/histogram): each closed window records its
//     busy seconds into an 80-bucket sketch, so snapshots report
//     p50/p95/p99 utilization without per-link sorting or retention.
//   * snapshots are emitted as newline-delimited JSON ("prdrb-stream-v1",
//     one object per line) from the window rolls, which run at the window
//     boundaries of Simulator::run_windows, between events rather than as
//     events, so traces, counters and event counts are untouched and the
//     stream is byte-identical across --jobs values.
//   * every roll also sums each router's busy time in the window it closes
//     into one row of heatmap pixels (finalize adds the window still open),
//     so --heatmap-out renders a time x router PGM without retaining
//     per-link history.
//
// Exports (--telemetry-out, --heatmap-out): "prdrb-telemetry-v2" JSON or
// CSV with each link's exact totals, its retained windows and its ancient
// fold; an ASCII heatmap of per-router total busy time through the
// metrics/map_render topology renderers; and the PGM above.
//
// On top of the windows sits the congestion-onset detector + prediction
// LEAD-TIME analyzer — the paper's central claim, made measurable: PR-DRB
// is supposed to open alternative metapaths BEFORE a link saturates, not
// after. Per link, an EWMA of the window utilization crossing
// `onset_threshold` (with hysteresis: re-arms below `onset_clear`) marks a
// congestion onset; the flows recently seen on that link are matched
// against their metapath opens (obs::Probe raises gradual expansions as
// reactive opens and SDB installs as predictive ones):
//
//   open active before the onset  -> positive lead = onset_t - open_t,
//   onset with no open, open later -> negative lead = onset_t - open_t.
//
// Lead magnitudes fold into paired positive/negative LatencyHistograms per
// traffic class; prdrb_report renders the signed medians and gates on
// losing a positive median ("Prediction lead time" section).
//
// Fed by obs::Probe (zero-cost when no probe is bound) and allocation-free
// in steady state once the windows are sized at bind() (Network::bind_probe
// calls it) — the only exceptions are std::map flow nodes
// (bounded by distinct (src,dst) pairs, the scorecard contract) and the
// NDJSON and heatmap-row output buffers, which are emitted artifacts rather
// than telemetry state: both get one 64 KiB reservation at bind(), grow
// amortized past it, and are excluded from memory_bytes().
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "metrics/histogram.hpp"
#include "net/topology.hpp"
#include "util/types.hpp"

namespace prdrb {
class Network;
class Packet;
}  // namespace prdrb

namespace prdrb::obs {

struct StreamConfig {
  /// Width of the finest aggregation window. A scenario run pins it to
  /// its window-boundary cadence (ObsSinks::sample_interval), so each roll
  /// closes exactly one window.
  SimTime window_s = 1e-3;
  /// Fine windows kept exactly per level before the 2:1 rollup kicks in.
  std::size_t ring_windows = 8;
  /// Coarser rollup levels past level 0 (each doubles the window width).
  int rollup_levels = 3;
  /// EWMA link utilization crossing this marks a congestion onset.
  double onset_threshold = 0.7;
  /// Hysteresis: the detector re-arms once the EWMA falls below this.
  double onset_clear = 0.5;
  /// Smoothing factor for the per-window utilization EWMA.
  double ewma_alpha = 0.4;
  /// Emit a snapshot line every this many closed windows.
  std::size_t snapshot_every = 10;
};

class StreamTelemetry {
 public:
  /// Traffic classes for the lead-time histograms (same partition as the
  /// scorecard: payload vs ACK vs predictive-ACK traffic).
  enum class TrafficClass : std::uint8_t { kData = 0, kAck, kPredictiveAck };
  static constexpr int kNumClasses = 3;
  /// Contending flows remembered per link for onset attribution.
  static constexpr std::size_t kRecentFlows = 8;

  /// Aggregate of one window (or a 2:1 rollup of several) on one link.
  struct WindowAgg {
    double busy = 0;  // busy (serializing) seconds inside the window
    std::uint32_t stalls = 0;   // credit-stall events
    std::uint32_t packets = 0;  // transmit commits
    void merge(const WindowAgg& o) {
      busy += o.busy;
      stalls += o.stalls;
      packets += o.packets;
    }
  };

  /// Cumulative per-link-class totals (dragonfly local/global taxonomy;
  /// on single-class topologies everything lands in "local"). `links` is
  /// the bind-time population of the class, the rest accumulates with the
  /// run — so snapshots can show WHERE congestion lives (all-stalls-on-
  /// global-links is the adversarial-permutation signature) at a cost of
  /// three scalars per class.
  struct ClassTotals {
    std::uint64_t links = 0;
    double busy_s = 0;
    std::uint64_t stalls = 0;
    std::uint64_t packets = 0;
  };

  /// One window slot in oldest-to-newest iteration order (tests, exports):
  /// `start` and `span` are in units of base windows.
  struct WindowView {
    int level = 0;
    std::uint64_t start = 0;  // first base window covered
    std::uint32_t span = 1;   // base windows covered (1 << level)
  };

  explicit StreamTelemetry(StreamConfig cfg = {});

  /// Size the per-link state for `net`'s shape and start observing.
  void bind(const Network& net);
  bool bound() const { return bound_; }

  const StreamConfig& config() const { return cfg_; }
  std::size_t num_links() const { return links_.size(); }
  std::size_t num_routers() const {
    return link_offset_.empty() ? 0 : link_offset_.size() - 1;
  }

  /// Re-pin the window clock before bind(): a scenario run aligns the
  /// window width with its window-boundary cadence and derives
  /// snapshot_every from the --stream-interval flag.
  void configure_cadence(SimTime window_s, std::size_t snapshot_every) {
    if (window_s > 0) cfg_.window_s = window_s;
    cfg_.snapshot_every = std::max<std::size_t>(snapshot_every, 1);
  }

  // --- push hooks (obs::Probe, from the network's link sites) ---
  /// A packet committed to router `r` port `port`, occupying the link for
  /// `ser` seconds starting at `start`. Also notes the packet's flow in
  /// the link's recent-flow set for onset attribution.
  void on_transmit(RouterId r, int port, const Packet& p, SimTime start,
                   SimTime ser);
  /// Port blocked on downstream buffer space.
  void on_credit_stall(RouterId r, int port, SimTime now);

  // --- control-plane hooks (obs::Probe, from the metapath sites) ---
  /// A metapath opened for (src,dst): `predictive` marks SDB installs
  /// (PredictiveEngine::enter_high) vs gradual reactive expansion
  /// (DrbPolicy::expand).
  void on_metapath_open(NodeId src, NodeId dst, int paths, bool predictive,
                        SimTime now);
  void on_metapath_close(NodeId src, NodeId dst, int paths, SimTime now);

  // --- window clock (rolled at the run's window boundaries) ---
  /// Close the current window at `now`: fold per-link aggregates into the
  /// rings, update the EWMA onset detector, and emit a snapshot line every
  /// cfg.snapshot_every rolls. Allocation-free once bound.
  void roll(SimTime now);

  /// Close any partial window, emit the final snapshot plus the "summary"
  /// line, and stop observing. Idempotent.
  void finalize(SimTime now);

  // --- introspection (tests, gauges) ---
  std::uint64_t windows_rolled() const { return windows_rolled_; }
  std::uint64_t onsets() const { return onsets_total_; }
  std::uint64_t opens(bool predictive) const {
    return predictive ? opens_predictive_ : opens_reactive_;
  }
  double link_busy_seconds(RouterId r, int port) const;
  std::uint64_t link_stalls(RouterId r, int port) const;
  std::uint64_t link_packets(RouterId r, int port) const;
  /// Cumulative totals of every link in class `c` (zeros if unbound or the
  /// topology has no such links).
  ClassTotals class_totals(LinkClass c) const;

  /// Current window layout, oldest (ancient excluded) to newest.
  std::vector<WindowView> window_layout() const;
  /// Aggregate of layout slot `view` (window_layout() order) on one link.
  WindowAgg window_at(RouterId r, int port, std::size_t view) const;
  /// Everything older than the retained windows, folded 2:1 off the top
  /// level (exact totals survive the fold).
  WindowAgg ancient(RouterId r, int port) const;

  /// Lead-time samples recorded for `cls`; `positive` selects the
  /// predicted-before-onset side.
  std::uint64_t lead_count(TrafficClass cls, bool positive) const;
  /// Signed median lead (seconds) for `cls` over both sides; positive
  /// means onsets were typically preceded by an open. 0 when empty.
  double lead_median(TrafficClass cls) const;
  const LatencyHistogram& lead_histogram(TrafficClass cls,
                                         bool positive) const;

  /// Bytes of telemetry state: fixed after bind() except for flow-map
  /// growth (bounded by distinct pairs). The NDJSON buffer is the output
  /// artifact, not state, and is excluded — this is the accounting gauge
  /// behind the bounded-memory acceptance test and the snapshots'
  /// "state_bytes" field.
  std::size_t memory_bytes() const;

  // --- export ---
  /// Snapshot + summary lines accumulated so far (newline-delimited JSON).
  const std::string& ndjson() const { return out_; }
  void write(std::ostream& os) const;
  bool write_file(const std::string& path) const;

  /// "prdrb-telemetry-v2" JSON: the window layout, the per-class totals
  /// and, for every link that carried traffic or stalled, its exact
  /// busy_s/stalls/packets, its retained windows and its ancient fold.
  std::string telemetry_json() const;
  /// The same per-link and per-class data as CSV rows.
  std::string telemetry_csv() const;
  /// Write to `path`: ".csv" -> CSV, anything else -> JSON.
  bool write_telemetry_file(const std::string& path) const;

  /// Per-router total link-busy time through the topology-aware map
  /// renderer. `topo` is passed in because the stream outlives the run's
  /// network.
  std::string heatmap_ascii(const Topology& topo) const;
  /// PGM (P2): one row per window (the rolled ones, then the one open at
  /// finalize), one column per router, pixel = round(255 * the router's
  /// mean link utilization in that window).
  std::string heatmap_pgm() const;
  /// Write to `path`: ".pgm" -> PGM, anything else -> ASCII via `topo`.
  bool write_heatmap_file(const std::string& path, const Topology& topo) const;

 private:
  struct RecentFlow {
    std::uint64_t key = 0;  // (src<<32)|dst of the data flow; 0 = empty
    TrafficClass cls = TrafficClass::kData;
  };

  /// Per-link state: current-window accumulators, carry for serialization
  /// intervals that extend past the window boundary, onset detector and
  /// the recent-flow set. The window rings live in flat per-level arrays
  /// (layout shared by all links) to keep this cache-compact.
  struct LinkState {
    WindowAgg cur;
    double carry = 0;  // busy seconds committed beyond the current window
    double ewma = 0;
    bool armed = true;
    std::array<RecentFlow, kRecentFlows> recent{};
    std::uint8_t recent_next = 0;
    WindowAgg ancient;
    double busy_total = 0;
    std::uint64_t stalls_total = 0;
    std::uint64_t packets_total = 0;
  };

  /// Per-flow lead-time matcher state (std::map for deterministic order).
  struct FlowState {
    SimTime last_open = -1;
    bool open_active = false;
    bool open_predictive = false;
    bool open_matched = false;  // already produced a lead sample
    SimTime pending_onset = -1;
    TrafficClass pending_cls = TrafficClass::kData;
  };

  struct LeadStats {
    LatencyHistogram positive;  // open preceded the onset
    LatencyHistogram negative;  // onset first, open arrived later
    std::uint64_t predictive_opens = 0;  // positive matches from SDB installs
  };

  std::size_t link_index(RouterId r, int port) const {
    return link_offset_[static_cast<std::size_t>(r)] +
           static_cast<std::size_t>(port);
  }
  static std::uint64_t flow_key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(dst);
  }
  void note_flow(LinkState& link, const Packet& p);
  /// Make room in level 0 by merging oldest window pairs upward (and the
  /// top level's oldest pair into `ancient`). Ring bookkeeping is shared
  /// by every link, so the per-level loops move all links at once.
  void cascade();
  void detect_onset(LinkState& link, SimTime now);
  /// Append one heatmap row: each router's summed `cur` busy time.
  void add_heat_row();
  void emit_snapshot(SimTime now, bool summary);

  StreamConfig cfg_;
  bool bound_ = false;

  std::vector<std::size_t> link_offset_;  // router id -> first link index
  std::vector<LinkState> links_;
  std::vector<std::uint8_t> link_class_;  // LinkClass per link, set at bind
  std::array<ClassTotals, 4> class_totals_{};  // indexed by LinkClass
  /// data_[level][link * ring_windows + slot]; ring bookkeeping (head,
  /// count) is global per level because every link rolls in lockstep.
  std::vector<std::vector<WindowAgg>> data_;
  std::vector<std::size_t> level_head_;
  std::vector<std::size_t> level_count_;
  std::uint64_t ancient_base_ = 0;  // base windows folded into `ancient`

  std::map<std::uint64_t, FlowState> flows_;
  std::array<LeadStats, kNumClasses> lead_{};

  LatencyHistogram util_sketch_;  // busy seconds per closed link-window
  double util_max_ = 0;

  // Cumulative totals, kept apart from the per-link state.
  double total_busy_s_ = 0;
  std::uint64_t total_stalls_ = 0;
  std::uint64_t total_packets_ = 0;
  SimTime last_time_ = 0;

  std::uint64_t windows_rolled_ = 0;
  std::uint64_t onsets_total_ = 0;
  std::uint64_t onsets_since_snapshot_ = 0;
  std::uint64_t opens_predictive_ = 0;
  std::uint64_t opens_reactive_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  bool finalized_ = false;

  std::string out_;  // NDJSON lines (output artifact, not telemetry state)
  /// Heatmap pixels, num_routers() per window (output artifact, not state).
  std::vector<std::uint8_t> heat_;
};

}  // namespace prdrb::obs
