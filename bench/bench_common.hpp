// Thin adapter over the library's experiment harness (experiment/scenario)
// for the per-figure bench binaries: aliases, table-formatting helpers, the
// shared command-line flags (--jobs, --trace-out, --metrics-out,
// --manifest-out, --no-manifest, --telemetry-out, --heatmap-out,
// --scorecard-out, --stream-out, --stream-interval, --watchdog[=S],
// --watchdog-out, --sdb-in, --sdb-out) and the BenchMain RAII wrapper that
// writes the run manifest (EXPERIMENTS.md "Run manifests") on exit.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "experiment/manifest.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "metrics/collector.hpp"
#include "net/kary_ntree.hpp"
#include "net/mesh2d.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/scorecard.hpp"
#include "obs/stream.hpp"
#include "obs/tracer.hpp"
#include "routing/oblivious.hpp"
#include "sim/simulator.hpp"
#include "traffic/hotspot.hpp"
#include "traffic/source.hpp"
#include "util/table.hpp"

namespace prdrb::bench {

using prdrb::default_drb_config;
using prdrb::improvement_pct;
using prdrb::make_policy;
using prdrb::make_topology;
using prdrb::Parsed;
using prdrb::PolicyBundle;
using prdrb::run_policies;
using prdrb::run_scenario;
using prdrb::run_sweep;
using prdrb::run_synthetic;
using prdrb::run_trace;
using prdrb::ScenarioResult;
using prdrb::ScenarioSpec;
using prdrb::SweepJob;
using prdrb::SyntheticWorkload;
using prdrb::TraceWorkload;

/// Older bench sources refer to trace results by this name.
using TraceResult = ScenarioResult;

/// Unwrap a factory parse result or exit 2 with the typed diagnostic (and
/// its nearest-name suggestion) — the uniform bad-name behaviour of every
/// bench binary and prdrb_sim.
template <typename T>
T require_parsed(Parsed<T> parsed) {
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.error().what() << '\n';
    std::exit(2);
  }
  return std::move(parsed.value());
}

/// Common entry-point setup for every bench binary: honours `--jobs N` /
/// `--jobs=N` / `-jN` (falling back to the PRDRB_JOBS environment variable,
/// then hardware concurrency) for the parallel sweep executor. Safe to call
/// with the raw main() arguments.
inline void bench_init(int argc, char** argv) {
  if (const int jobs = prdrb::parse_jobs_flag(argc, argv)) {
    prdrb::set_default_jobs(jobs);
  }
}

/// Observability flags shared by every bench binary (and prdrb_sim).
struct BenchOptions {
  int jobs = 0;              // --jobs N / --jobs=N / -jN; 0 = default
  std::string trace_out;     // --trace-out=PATH: Chrome trace of the probe
  std::string metrics_out;   // --metrics-out=PATH: counter CSV/JSON export
  std::string manifest_out;  // --manifest-out=PATH (default NAME.manifest.json)
  bool manifest = true;      // --no-manifest suppresses the manifest file
  std::string telemetry_out; // --telemetry-out=PATH: per-link telemetry
  std::string heatmap_out;   // --heatmap-out=PATH: ASCII (or .pgm) heatmap
  std::string scorecard_out; // --scorecard-out=PATH: predictive scorecard
  std::string stream_out;    // --stream-out=PATH: streaming telemetry NDJSON
  double stream_interval = 0; // --stream-interval=S: snapshot cadence (sim s)
  double watchdog = 0;       // --watchdog[=SECONDS]: stall watchdog window
  std::string watchdog_out;  // --watchdog-out=PATH: flight dump JSON if fired
  std::string sdb_in;        // --sdb-in=PATH: warm-start the solution DB
  std::string sdb_out;       // --sdb-out=PATH: export the probe's solution DB
};

/// Default virtual-time window for `--watchdog` without a value: generous
/// against the ~4.3 us uncontended packet latency, tight enough to fire
/// within any evaluated scenario's duration.
inline constexpr double kDefaultWatchdogWindow = 5e-3;

/// Parse the shared flags. Unknown arguments are ignored (each bench keeps
/// its own extra flags); both "--flag=value" and "--flag value" work.
inline BenchOptions parse_bench_flags(int argc, char** argv) {
  BenchOptions o;
  o.jobs = prdrb::parse_jobs_flag(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto take = [&](std::string_view name, std::string& out) {
      if (a.starts_with(name) && a.size() > name.size() &&
          a[name.size()] == '=') {
        out = std::string(a.substr(name.size() + 1));
        return true;
      }
      if (a == name && i + 1 < argc) {
        out = argv[++i];
        return true;
      }
      return false;
    };
    if (take("--trace-out", o.trace_out)) continue;
    if (take("--metrics-out", o.metrics_out)) continue;
    if (take("--manifest-out", o.manifest_out)) continue;
    if (take("--telemetry-out", o.telemetry_out)) continue;
    if (take("--heatmap-out", o.heatmap_out)) continue;
    if (take("--scorecard-out", o.scorecard_out)) continue;
    if (take("--stream-out", o.stream_out)) continue;
    {
      std::string v;
      if (take("--stream-interval", v)) {
        o.stream_interval = std::atof(v.c_str());
        continue;
      }
    }
    if (take("--watchdog-out", o.watchdog_out)) continue;
    if (take("--sdb-in", o.sdb_in)) continue;
    if (take("--sdb-out", o.sdb_out)) continue;
    if (a == "--watchdog") {
      o.watchdog = kDefaultWatchdogWindow;
      continue;
    }
    if (a.starts_with("--watchdog=")) {
      o.watchdog = std::atof(std::string(a.substr(11)).c_str());
      if (!(o.watchdog > 0)) o.watchdog = kDefaultWatchdogWindow;
      continue;
    }
    if (a == "--no-manifest") o.manifest = false;
  }
  return o;
}

/// RAII entry point for bench binaries: parses the shared flags, applies
/// --jobs, accumulates every recorded ScenarioResult into a RunManifest and
/// writes it (plus the optional trace / counter exports) when main() ends.
///
/// The instrumented run is a dedicated *probe*: probe_scenario() executes
/// one scenario serially with a tracer and a counter registry attached and
/// writes --trace-out / --metrics-out. Because the probe never goes through
/// the parallel executor, the trace bytes are a function of the scenario and
/// seed only — identical at any --jobs value.
class BenchMain {
 public:
  BenchMain(std::string name, int argc, char** argv)
      : name_(std::move(name)),
        opts_(parse_bench_flags(argc, argv)),
        manifest_(name_),
        start_(std::chrono::steady_clock::now()) {
    if (opts_.jobs) prdrb::set_default_jobs(opts_.jobs);
  }

  BenchMain(const BenchMain&) = delete;
  BenchMain& operator=(const BenchMain&) = delete;

  const BenchOptions& options() const { return opts_; }
  RunManifest& manifest() { return manifest_; }

  void record(const ScenarioResult& r) { manifest_.add_result(r); }
  void record(const std::vector<ScenarioResult>& rs) {
    for (const ScenarioResult& r : rs) manifest_.add_result(r);
  }

  /// True when any observability output flag was given (the caller should
  /// then run a probe).
  bool wants_probe() const {
    return !opts_.trace_out.empty() || !opts_.metrics_out.empty() ||
           !opts_.telemetry_out.empty() || !opts_.heatmap_out.empty() ||
           !opts_.scorecard_out.empty() || !opts_.stream_out.empty() ||
           !opts_.sdb_out.empty() || opts_.watchdog > 0;
  }

  /// Apply --sdb-in to a sweep spec: every job of a warm-started sweep
  /// imports the same exported database before running (reads race-free;
  /// only the serial probe may WRITE one, see probe_scenario()). No-op
  /// without the flag.
  ScenarioSpec warm_started(ScenarioSpec sc) const {
    if (!opts_.sdb_in.empty()) sc.sdb_in = opts_.sdb_in;
    return sc;
  }

  /// Run `policy` over `sc` serially with the requested observers attached
  /// (tracer + counters always; the stream for --stream-out /
  /// --telemetry-out / --heatmap-out; stall watchdog for --watchdog) and
  /// write the requested outputs. No-op (empty result) when no
  /// observability output was requested.
  ScenarioResult probe_scenario(const std::string& policy,
                                ScenarioSpec sc) {
    if (!wants_probe()) return {};
    if (!opts_.sdb_in.empty()) sc.sdb_in = opts_.sdb_in;
    sc.sdb_out = opts_.sdb_out;  // serial probe: safe to write the export
    obs::Tracer tracer;
    obs::CounterRegistry counters(sc.bin_width);
    obs::FlightRecorder recorder(512);
    obs::Scorecard scorecard;
    obs::StreamTelemetry stream;
    sc.sinks.tracer = &tracer;
    sc.sinks.counters = &counters;
    if (!opts_.scorecard_out.empty()) sc.sinks.scorecard = &scorecard;
    if (!opts_.stream_out.empty() || !opts_.telemetry_out.empty() ||
        !opts_.heatmap_out.empty()) {
      sc.sinks.stream = &stream;
      if (opts_.stream_interval > 0) {
        sc.sinks.stream_interval = opts_.stream_interval;
      }
    }
    std::string dump;
    if (opts_.watchdog > 0) {
      sc.sinks.recorder = &recorder;
      sc.sinks.watchdog_window = opts_.watchdog;
      sc.sinks.watchdog_dump = &dump;
    }
    ScenarioResult r = run_scenario(policy, sc);
    if (!opts_.trace_out.empty()) tracer.write_file(opts_.trace_out);
    if (!opts_.metrics_out.empty()) counters.write_file(opts_.metrics_out);
    if (!opts_.telemetry_out.empty()) {
      stream.write_telemetry_file(opts_.telemetry_out);
    }
    if (!opts_.heatmap_out.empty()) {
      stream.write_heatmap_file(
          opts_.heatmap_out, *make_topology(sc.topology).value_or_throw());
    }
    if (!opts_.watchdog_out.empty() && !dump.empty()) {
      obs::write_text_file(opts_.watchdog_out, dump);
    }
    // Accumulate (exact bucket-wise fold) so a bench that probes several
    // scenarios writes one merged scorecard at exit.
    if (!opts_.scorecard_out.empty()) scorecard_.merge(scorecard);
    if (!opts_.stream_out.empty()) {
      // The probe's finalize() already appended its own summary line; keep
      // the per-probe NDJSON verbatim and fold the ledgers so a multi-probe
      // bench can close the file with one merged summary.
      stream_ndjson_ += stream.ndjson();
      stream_merged_.merge(stream);
      ++stream_probes_;
    }
    return r;
  }

  ~BenchMain() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    manifest_.set_wall_seconds(
        std::chrono::duration<double>(elapsed).count());
    manifest_.set_jobs(prdrb::default_jobs());
    if (opts_.manifest) {
      const std::string path = opts_.manifest_out.empty()
                                   ? name_ + ".manifest.json"
                                   : opts_.manifest_out;
      manifest_.write_file(path);
    }
    if (!opts_.scorecard_out.empty()) {
      scorecard_.write_file(opts_.scorecard_out);
    }
    if (!opts_.stream_out.empty()) {
      // A single-probe run's NDJSON already ends with that probe's summary;
      // only a multi-probe bench needs the extra merged summary line.
      if (stream_probes_ > 1) {
        stream_merged_.finalize(0);
        stream_ndjson_ += stream_merged_.ndjson();
      }
      obs::write_text_file(opts_.stream_out, stream_ndjson_);
    }
  }

 private:
  std::string name_;
  BenchOptions opts_;
  RunManifest manifest_;
  obs::Scorecard scorecard_;  // merged across probe_scenario() calls
  obs::StreamTelemetry stream_merged_;  // ledger fold across probes
  std::string stream_ndjson_;           // concatenated per-probe NDJSON
  int stream_probes_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Per-router latency maps of a synthetic scenario under several policies
/// (Figs. 4.10/4.11), one sweep job per policy.
inline std::vector<std::vector<double>> run_policy_maps(
    const std::vector<std::string>& policies, const ScenarioSpec& sc) {
  std::vector<std::vector<double>> maps;
  for (auto& r : run_policies(policies, sc)) {
    maps.push_back(std::move(r.router_map));
  }
  return maps;
}

/// Seconds -> microseconds, formatted.
inline std::string us(double seconds, int precision = 3) {
  return Table::num(seconds * 1e6, precision);
}

}  // namespace prdrb::bench
