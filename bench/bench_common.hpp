// Thin adapter over the library's experiment harness (experiment/scenario)
// for the per-figure bench binaries: aliases, table-formatting helpers, and
// the BenchMain RAII wrapper that applies --jobs, checks the output flags
// (experiment/scenario) against what the bench acts on, and writes the run
// manifest (EXPERIMENTS.md "Run manifests") on exit.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <string_view>

#include "experiment/manifest.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "metrics/collector.hpp"
#include "net/kary_ntree.hpp"
#include "net/mesh2d.hpp"
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
using prdrb::ScenarioResult;
using prdrb::ScenarioSpec;
using prdrb::SweepJob;
using prdrb::SyntheticWorkload;
using prdrb::TraceWorkload;

/// Every output flag run_observed() acts on: what a bench that calls
/// BenchMain::probe_scenario() honours.
inline constexpr std::array<std::string_view, 11> kProbeFlags{
    "--trace-out",  "--metrics-out", "--telemetry-out", "--heatmap-out",
    "--scorecard-out", "--stream-out", "--stream-interval", "--watchdog",
    "--watchdog-out", "--sdb-in", "--sdb-out"};

/// RAII entry point for bench binaries: applies --jobs, parses the output
/// flags, accumulates every recorded ScenarioResult into a RunManifest and
/// writes it when main() ends.
///
/// Every bench takes --jobs N (also --jobs=N and -jN), --manifest-out and
/// --no-manifest. The other output flags are honoured only where the bench
/// acts on them (`honoured`). Any other argument, or a malformed value,
/// exits 2 before a simulation starts.
///
/// The instrumented run is a dedicated *probe*: probe_scenario() executes
/// one scenario serially through run_observed(). Because the probe never
/// goes through the parallel executor, its output bytes are a function of
/// the scenario and seed only — identical at any --jobs value.
class BenchMain {
 public:
  BenchMain(std::string name, int argc, char** argv,
            std::span<const std::string_view> honoured = {})
      : name_(std::move(name)),
        manifest_(name_),
        start_(std::chrono::steady_clock::now()) {
    for (int i = 1; i < argc; ++i) {
      const Parsed<std::string> flag =
          parse_output_flag(argc, argv, i, flags_);
      if (!flag.ok()) reject(flag.error().what());
      const std::string& f = flag.value();
      if (f.empty()) {
        apply_jobs(argc, argv, i);
      } else if (f != "--manifest-out" && f != "--no-manifest" &&
                 std::find(honoured.begin(), honoured.end(), f) ==
                     honoured.end()) {
        reject(name_ + " does not support " + f);
      }
    }
  }

  BenchMain(const BenchMain&) = delete;
  BenchMain& operator=(const BenchMain&) = delete;

  const OutputFlags& options() const { return flags_; }
  RunManifest& manifest() { return manifest_; }

  void record(const ScenarioResult& r) { manifest_.add_result(r); }
  void record(const std::vector<ScenarioResult>& rs) {
    for (const ScenarioResult& r : rs) manifest_.add_result(r);
  }

  /// True when a probe output was asked for (the caller should then run
  /// probe_scenario()).
  bool wants_probe() const {
    return flags_.observes() || !flags_.sdb_out.empty();
  }

  /// Apply --sdb-in to a sweep spec: every job of a warm-started sweep
  /// imports the same exported database before running (reads race-free;
  /// only the serial probe may WRITE one, see probe_scenario()). No-op
  /// without the flag.
  ScenarioSpec warm_started(ScenarioSpec sc) const {
    if (!flags_.sdb_in.empty()) sc.sdb_in = flags_.sdb_in;
    return sc;
  }

  /// Run `policy` over `sc` serially with the requested sinks attached and
  /// write the requested outputs, --sdb-out included. Call at most once per
  /// bench run. No-op (empty result) when no probe output was requested.
  ScenarioResult probe_scenario(const std::string& policy,
                                ScenarioSpec sc) {
    if (!wants_probe()) return {};
    sc = warm_started(std::move(sc));
    sc.sdb_out = flags_.sdb_out;  // serial probe: safe to write the export
    return run_observed(policy, std::move(sc), flags_);
  }

  ~BenchMain() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    manifest_.set_wall_seconds(
        std::chrono::duration<double>(elapsed).count());
    manifest_.set_jobs(prdrb::default_jobs());
    if (flags_.manifest) {
      manifest_.write_file(flags_.manifest_out.empty()
                               ? name_ + ".manifest.json"
                               : flags_.manifest_out);
    }
  }

 private:
  [[noreturn]] static void reject(const std::string& what) {
    std::cerr << "error: " << what << '\n';
    std::exit(2);
  }

  /// argv[i] must be "--jobs N", "--jobs=N" or "-jN"; anything else is an
  /// unknown argument.
  static void apply_jobs(int argc, char** argv, int& i) {
    const std::string_view a = argv[i];
    std::string_view flag = prdrb::flag_name(a);
    std::string value;
    if (flag == "--jobs") {
      Parsed<std::string> v = prdrb::flag_value(argc, argv, i);
      if (!v.ok()) reject(v.error().what());
      value = std::move(v.value());
    } else if (a.starts_with("-j") && a.size() > 2) {
      flag = "-j";
      value = a.substr(2);
    } else {
      reject("unknown option '" + std::string(a) + "'");
    }
    const Parsed<int> jobs = prdrb::parse_jobs(flag, value);
    if (!jobs.ok()) reject(jobs.error().what());
    prdrb::set_default_jobs(jobs.value());
  }

  std::string name_;
  OutputFlags flags_;
  RunManifest manifest_;
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
