// Counter registry: named monotonic counters and gauges for the simulation.
//
// Modules register metrics under hierarchical dotted names
// ("net.link.bytes", "sim.events", ...; see DESIGN.md "Observability" for
// the naming scheme). Counters are plain accumulators bumped on the hot
// path behind a single-branch guard; gauges are pull-style probes evaluated
// only when the registry is sampled. sample() snapshots every metric into a
// per-metric TimeSeries (the same binned structure behind all the
// latency-vs-time figures); a scenario run calls it at every window
// boundary of Simulator::run_windows, and the whole registry exports as CSV
// or JSON.
//
// Registration order is preserved everywhere (iteration, export), so output
// is deterministic for a deterministic simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/time_series.hpp"
#include "util/types.hpp"

namespace prdrb::obs {

/// Monotonic accumulator. Address-stable once registered.
class Counter {
 public:
  void add(std::uint64_t d) { value_ += d; }
  void increment() { ++value_; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class CounterRegistry {
 public:
  explicit CounterRegistry(SimTime bin_width = 0.5e-3);

  /// Register (or fetch) a monotonic counter. The reference stays valid for
  /// the registry's lifetime.
  Counter& counter(const std::string& name);

  /// Register a pull-style gauge evaluated at sample time.
  void gauge(const std::string& name, std::function<double()> probe);

  /// Snapshot every metric into its TimeSeries at virtual time `now`.
  void sample(SimTime now);

  /// Sampled history of a metric; nullptr for unknown names.
  const TimeSeries* series(const std::string& name) const;

  /// Current value (counter value, or gauge probe) of a metric; 0 when
  /// unknown. Frozen gauges report their last captured value.
  double current(const std::string& name) const;

  /// Capture every gauge's final value and drop its probe. Gauges usually
  /// close over run-local state (the simulator, the network); freezing at
  /// end of run makes the registry safe to query and export after that
  /// state is gone. run_scenario freezes the gauges it registered when the
  /// run ends, thrown or not.
  void freeze_gauges();

  std::vector<std::string> names() const;  // registration order
  std::size_t size() const { return metrics_.size(); }
  std::uint64_t samples_taken() const { return samples_taken_; }

  /// Total out-of-domain timestamps clamped across every metric's series
  /// (surfaced by attach_sinks as the "metrics.timeseries.clamped" gauge —
  /// deliberately not self-registered here, so a bare registry contains
  /// exactly the metrics its owner created).
  std::uint64_t timeseries_clamped() const;

  /// CSV: one row per (metric, bin): name,bin_time_s,mean,count.
  void write_csv(std::ostream& os) const;
  /// JSON: {"schema":...,"counters":[{name,value,series:[[t,mean],...]}]}.
  void write_json(std::ostream& os) const;
  std::string to_json() const;
  /// Write to `path`, picking CSV or JSON by extension (".csv" -> CSV).
  bool write_file(const std::string& path) const;

 private:
  struct Metric {
    std::string name;
    bool is_gauge = false;
    std::unique_ptr<Counter> counter;  // address-stable cell
    std::function<double()> probe;
    double last = 0;  // last sampled (or frozen) value
    TimeSeries series;

    explicit Metric(SimTime bin_width) : series(bin_width) {}
  };

  Metric& find_or_create(const std::string& name, bool is_gauge);

  SimTime bin_width_;
  std::vector<std::unique_ptr<Metric>> metrics_;  // registration order
  std::unordered_map<std::string, std::size_t> index_;
  std::uint64_t samples_taken_ = 0;
};

}  // namespace prdrb::obs
