// Experiment harness: configuration-driven construction and execution of
// complete simulation scenarios (topology + policy + workload + metrics).
//
// This is the library-level API the per-figure bench binaries and the
// examples are built on: name a topology ("mesh-8x8", "tree-64", ...), a
// policy ("drb", "pr-drb@router", ...) and a workload (synthetic pattern or
// application trace), run it, and read back the thesis metrics (§4.2).
//
// One scenario type serves both workload families: ScenarioSpec carries the
// shared knobs (topology, seed, bin width, network/DRB/PR-DRB configs,
// watch list, observability sinks) and a
// std::variant<SyntheticWorkload, TraceWorkload> for the part that differs.
// run_scenario() is the single entry point and check_scenario(), which it
// calls first, the one place that holds the rules a spec must meet;
// run_observed() wraps it for the command-line front ends, which parse
// their file flags through parse_output_flag().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/pr_drb.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "trace/generators.hpp"
#include "traffic/bursty.hpp"
#include "traffic/pattern.hpp"
#include "util/parsed.hpp"

namespace prdrb {

namespace obs {
class CounterRegistry;
class FlightRecorder;
class Scorecard;
class StreamTelemetry;
class Tracer;
}  // namespace obs

/// DRB thresholds used across the evaluation scenarios; chosen relative to
/// the ~4.3 us uncontended packet latency of the 2 Gb/s / 1024 B setup
/// (Tables 4.2/4.3).
DrbConfig default_drb_config();

/// Optional observability sinks for a scenario run (DESIGN.md
/// "Observability"), all borrowed: the caller owns each and reads it back
/// after the run. The run binds them to the network through one obs::Probe,
/// which every hook site raises its events on. A non-null `counters` also
/// gets the network/routing/sim gauges, sampled at every window boundary
/// and frozen when the run ends, so the registry stays safe to query and
/// export afterwards.
///
/// Every run steps through Simulator::run_windows with width
/// `sample_interval` (finite and > 0, or run_scenario throws), attached or
/// not: the periodic observers run between events at each boundary, never
/// as events, so no sink changes the run, and every run ends on the first
/// boundary after its queue drains.
///
/// Post-mortem sinks: `recorder` rings every control-plane event (CFD,
/// metapath, SDB, stalls). `watchdog_window > 0` arms a stall watchdog: if
/// no packet is delivered for that many virtual seconds while work is
/// pending (or the run ends starved), it dumps ring + router snapshot +
/// event-queue stats once to `watchdog_stream` (stderr when null) and into
/// `*watchdog_dump` when given (empty = never fired).
struct ObsSinks {
  obs::Tracer* tracer = nullptr;
  obs::CounterRegistry* counters = nullptr;
  SimTime sample_interval = 1e-3;
  obs::FlightRecorder* recorder = nullptr;
  /// Predictive-efficacy scorecard (obs/scorecard.hpp); finalized (open
  /// intervals and episodes closed at the final virtual time) at run end.
  obs::Scorecard* scorecard = nullptr;
  /// Per-link streaming telemetry (obs/stream.hpp): its window clock rolls
  /// at every window boundary after the first and a "prdrb-stream-v1"
  /// NDJSON snapshot is emitted roughly every `stream_interval` of virtual
  /// time. Finalized (summary line emitted, heatmap closed) at run end, so
  /// the telemetry and heatmap exports are safe to write afterwards.
  obs::StreamTelemetry* stream = nullptr;
  SimTime stream_interval = 10e-3;
  SimTime watchdog_window = 0;  // 0 = watchdog disabled
  std::ostream* watchdog_stream = nullptr;  // nullptr = stderr
  std::string* watchdog_dump = nullptr;     // out: "prdrb-flightdump-v1"
};

/// A policy plus its router-side monitor (PR variants) and typed views.
struct PolicyBundle {
  std::unique_ptr<RoutingPolicy> policy;
  std::unique_ptr<CongestionDetector> monitor;  // only for PR-DRB variants
  DrbPolicy* drb = nullptr;                     // non-null for the DRB family
  PredictiveEngine* engine = nullptr;           // non-null for PR variants
};

/// Factory over the evaluated policy set: "deterministic", "random",
/// "cyclic", "adaptive", "minimal", "valiant", "ugal-l", "drb", "fr-drb",
/// "pr-drb", "pr-fr-drb". PR variants take `prdrb` and accept an "@router"
/// suffix selecting router-based notification (§3.4.1) instead of the
/// default destination-based scheme; the suffix overrides
/// `prdrb.notification`. Unknown names come back as a ParseError with the
/// nearest known policy suggested.
Parsed<PolicyBundle> make_policy(const std::string& name,
                                 DrbConfig drb = default_drb_config(),
                                 std::uint64_t seed = 7,
                                 PrDrbConfig prdrb = {});

/// Topology factory: "mesh-WxH", "torus-WxH", N-D grids such as
/// "mesh-4x4x4", "cube-n", "tree-N" (N in {16,32,64,256}), explicit
/// "kary-K-N" or "dragonfly-a:g:h:p". Unknown or malformed names come back
/// as a ParseError with the nearest known shape suggested.
Parsed<std::unique_ptr<Topology>> make_topology(const std::string& name);

/// Everything a finished scenario reports.
struct ScenarioResult {
  std::string policy;
  double global_latency = 0;    // Eq. 4.2, seconds
  double mean_latency = 0;      // plain packet mean
  double peak_bin_latency = 0;  // highest time-series bin mean
  double map_peak = 0;          // latency-surface peak
  double map_mean = 0;          // mean over active routers
  double exec_time = 0;         // trace runs only; -1 if the trace wedged
  double delivery_ratio = 0;
  double p50_latency = 0;       // packet-latency percentiles
  double p95_latency = 0;
  double p99_latency = 0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;  // kernel events executed (deterministic)
  std::uint64_t expansions = 0;
  std::uint64_t installs = 0;
  std::uint64_t trend_triggers = 0;
  std::size_t patterns_saved = 0;
  std::size_t patterns_reused = 0;
  std::uint64_t max_reuse = 0;
  std::vector<std::pair<double, double>> series;       // (time, avg latency)
  std::vector<double> router_map;                      // avg contention per router
  std::vector<std::pair<RouterId, std::vector<std::pair<double, double>>>>
      router_series;                                   // watched routers

  /// Exact (bit-wise on doubles) comparison; the parallel sweep executor's
  /// determinism contract is stated in terms of this equality.
  bool operator==(const ScenarioResult&) const = default;
};

/// Synthetic-traffic workload (Tables 4.2/4.3 style).
struct SyntheticWorkload {
  /// Pattern name from traffic/pattern.hpp, "hotspot-cross" /
  /// "hotspot-double" for the §4.5 mesh layouts, or "adversarial-group"
  /// for the dragonfly group shift.
  std::string pattern = "perfect-shuffle";
  double rate_bps = 400e6;
  SimTime duration = 30e-3;
  /// Bursty structure (§2.2.3): `bursts` bursts of `burst_len` separated by
  /// `gap_len`; 0 bursts = continuous injection.
  int bursts = 6;
  SimTime burst_len = 3e-3;
  SimTime gap_len = 2e-3;
  double noise_rate_bps = 0;  // uniform background load on all nodes
};

/// Application-trace workload (§4.8 style).
struct TraceWorkload {
  std::string app = "pop";
  TraceScale scale;
};

/// One complete scenario: the fields every run shares, plus the workload
/// variant. Default-constructed specs hold a SyntheticWorkload.
struct ScenarioSpec {
  std::string topology = "tree-64";
  std::uint64_t seed = 11;
  SimTime bin_width = 1e-3;
  NetConfig net;
  DrbConfig drb = default_drb_config();
  PrDrbConfig prdrb;  // notification mode is overridden by "@router" names
  std::vector<RouterId> watch;  // routers whose series to record
  ObsSinks sinks;  // optional observability sinks
  /// Solution-database warm start / persistence (predictive policies only;
  /// ignored by policies without a PredictiveEngine). `sdb_in` is imported
  /// into the engine's database before the run ("prdrb-sdb-v1" or legacy
  /// text); `sdb_out` receives the deterministic export after the run —
  /// byte-identical across repeats and --jobs values.
  std::string sdb_in;
  std::string sdb_out;
  std::variant<SyntheticWorkload, TraceWorkload> workload;

  bool is_synthetic() const {
    return std::holds_alternative<SyntheticWorkload>(workload);
  }

  /// Workload accessors. The mutable overloads switch the variant to the
  /// requested alternative when it holds the other one (starting from the
  /// defaults), so building a spec is one field assignment per knob; the
  /// const overloads require the matching alternative.
  SyntheticWorkload& synthetic() {
    if (!is_synthetic()) workload.emplace<SyntheticWorkload>();
    return std::get<SyntheticWorkload>(workload);
  }
  const SyntheticWorkload& synthetic() const {
    return std::get<SyntheticWorkload>(workload);
  }
  TraceWorkload& trace() {
    if (is_synthetic()) workload.emplace<TraceWorkload>();
    return std::get<TraceWorkload>(workload);
  }
  const TraceWorkload& trace() const {
    return std::get<TraceWorkload>(workload);
  }
};

/// Caps on a spec's size (check_scenario), each derived from the largest
/// value the repo runs. Offered packets of a synthetic workload, counted as
/// if every node injected rate_bps + noise_rate_bps for the whole duration:
/// the largest shipped spec, perfbench's mesh8-hotspot-prdrb, offers 6.0e5
/// (64 nodes x 1.2 Gb/s x 64.5 ms / 8192 bits), so 2^22 leaves 7x headroom.
/// An overloaded run queues nearly every offered packet at once, about
/// 260 B each: 2^22 of them hold about 1 GB, 2^24 more than 2 GB.
inline constexpr std::int64_t kMaxOfferedPackets = std::int64_t{1} << 22;
/// Trace scales: 16x the largest shipped value of each, 16 iterations
/// (bench_fig_4_24), bytes x12 (bench_fig_4_20) and compute x1 (the
/// default, which the golden corpus and perfbench run).
inline constexpr int kMaxTraceIterations = 16 * 16;
inline constexpr double kMaxTraceBytesScale = 16 * 12.0;
inline constexpr double kMaxTraceComputeScale = 16 * 1.0;

/// What check_scenario built while checking a spec, so that run_scenario
/// builds nothing twice.
struct CheckedScenario {
  std::unique_ptr<Topology> topology;
  PolicyBundle bundle;
  /// A synthetic workload's destination pattern and the nodes that inject
  /// (empty = every node); both empty for a trace workload.
  struct Traffic {
    std::unique_ptr<DestinationPattern> pattern;
    std::vector<NodeId> sources;
  } traffic;
};

/// The one home of the scenario rules: builds `spec`'s topology, `policy`
/// and traffic, or returns a ParseError naming the bad name or field. Each
/// rule applies whether or not the workload reads the field:
/// - names: the topology and the policy as make_topology and make_policy
///   parse them; a pattern outside pattern_table(), the §4.5 hot-spot
///   layouts and "adversarial-group", or an app outside app_table(), with
///   the nearest name suggested;
/// - pattern x topology: a bit permutation needs a power-of-two node count,
///   "hotspot-cross" and "hotspot-double" a 2D mesh or torus (Mesh2D),
///   "hotspot-double" one at least 4 routers wide, and "adversarial-group"
///   a dragonfly;
/// - synthetic numbers: rate_bps, duration and burst_len finite and > 0,
///   gap_len and noise_rate_bps finite and >= 0, bursts >= 0, and at most
///   kMaxOfferedPackets offered;
/// - trace numbers: iterations in [1, kMaxTraceIterations], bytes_scale and
///   compute_scale in [0, their cap].
Parsed<CheckedScenario> check_scenario(const std::string& policy,
                                       const ScenarioSpec& spec);

/// Run one scenario under one policy — the single execution entry point;
/// dispatches on the workload alternative. A spec check_scenario rejects
/// throws std::invalid_argument with its diagnostic before anything runs.
ScenarioResult run_scenario(const std::string& policy_name,
                            const ScenarioSpec& spec);

/// Window of a bare --watchdog, in virtual seconds: generous against the
/// ~4.3 us uncontended packet latency, tight enough to fire within any
/// evaluated scenario's duration.
inline constexpr double kDefaultWatchdogWindow = 5e-3;

/// The file flags of one command line.
struct OutputFlags {
  std::string trace_out;       // Chrome trace_event JSON
  std::string metrics_out;     // counter registry (.csv -> CSV, else JSON)
  std::string telemetry_out;   // per-link telemetry (.csv or v2 JSON)
  std::string heatmap_out;     // per-router heatmap (.pgm or ASCII)
  std::string scorecard_out;   // predictive-efficacy scorecard JSON
  std::string stream_out;      // streaming telemetry NDJSON
  double stream_interval = 0;  // snapshot cadence; 0 = ObsSinks default
  double watchdog = 0;         // stall-watchdog window; 0 = off
  std::string watchdog_out;    // flight dump JSON, written if it fired
  std::string sdb_in;          // warm-start the solution database
  std::string sdb_out;         // export the solution database
  std::string manifest_out;    // run-manifest path; empty = front-end default
  bool manifest = true;        // cleared by --no-manifest

  /// True when a sink output or the watchdog was asked for.
  bool observes() const;
};

/// Parse argv[i] as one output flag, "--flag value" or "--flag=value" (a
/// bare --watchdog takes kDefaultWatchdogWindow), advancing `i` past a
/// separate value. Returns the flag's name, "" when argv[i] is not an output
/// flag, or a ParseError when the value is missing or, for
/// --stream-interval and --watchdog=, not a positive number of seconds.
Parsed<std::string> parse_output_flag(int argc, char** argv, int& i,
                                      OutputFlags& flags);

/// Run `policy` over `sc` serially with the sinks `flags` asks for attached,
/// then write each requested output file. The spec's own sdb_in/sdb_out
/// apply: callers copy the --sdb-* flags there when this run should use
/// them.
ScenarioResult run_observed(const std::string& policy, ScenarioSpec sc,
                            const OutputFlags& flags);

/// Percentage improvement of `value` over `baseline` (positive = better).
/// A zero or non-finite baseline (or non-finite value) is a degenerate
/// comparison: it returns 0 and warns on stderr instead of emitting
/// inf/NaN into bench tables.
double improvement_pct(double baseline, double value);

// --- multi-seed replication (thesis §4.3: "executing multiple instances of
//     the simulation with a different set of random seeds" and averaging
//     to obtain statistically valid results) ---

/// Summary statistics over replicated runs.
struct Replication {
  int runs = 0;
  double mean = 0;
  double stddev = 0;  // sample standard deviation
  double min = 0;
  double max = 0;

  /// Half-width of the ~95 % confidence interval (1.96 * stddev / sqrt(n)).
  double ci95() const;
};

Replication summarize(const std::vector<double>& values);

/// Run a scenario `runs` times with derived seeds and return the per-run
/// results (seed = spec.seed + i). Throws std::invalid_argument when
/// `runs` < 1.
std::vector<ScenarioResult> run_synthetic_replicated(
    const std::string& policy_name, ScenarioSpec spec, int runs);

/// Replication summary of one metric extracted from replicated runs.
template <typename Metric>
Replication replicate_metric(const std::vector<ScenarioResult>& results,
                             Metric&& metric) {
  std::vector<double> values;
  values.reserve(results.size());
  for (const ScenarioResult& r : results) values.push_back(metric(r));
  return summarize(values);
}

}  // namespace prdrb
