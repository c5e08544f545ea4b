// The benchmark's four workloads and the set-up that mirrors run_scenario().
//
// Each workload is a (policy, ScenarioSpec) pair; its seed is a benchmark
// argument that lands in ScenarioSpec::seed (the policy seed stays the fixed
// 7 inside run_scenario). Rig rebuilds from the library's public
// constructors exactly what run_scenario() builds before the first event,
// in the same order, so a Rig run schedules the same events and reproduces
// the same results. Timing decorators (layer_trace.hpp) can be slotted in
// over the four virtual interfaces the network calls into.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/scenario.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "trace/player.hpp"
#include "traffic/source.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::string policy;
  /// Builds the spec. `tiny` shrinks the run to a fraction of a second of
  /// host time for the self-test; everything else stays the same.
  prdrb::ScenarioSpec (*spec)(std::uint64_t seed, bool tiny);
};

/// The four workloads in the order `--workload all` runs them.
const std::vector<Workload>& workloads();

/// nullptr when `name` names no workload.
const Workload* find_workload(std::string_view name);

class SpanRecorder;

/// Host seconds spent in each part of the set-up.
struct SetupTimes {
  double topology_s = 0;  // make_topology
  double network_s = 0;   // Simulator, policy, Network, MetricsCollector
  double workload_s = 0;  // pattern or trace, generators or player, start()
  double total() const { return topology_s + network_s + workload_s; }
};

/// One scenario, built and ready to run. With a recorder, the topology,
/// policy, router monitor and metrics observer are wrapped in timing
/// decorators and Simulator::run becomes the root span.
class Rig {
 public:
  Rig(const Workload& w, const prdrb::ScenarioSpec& spec,
      SpanRecorder* recorder = nullptr);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  const SetupTimes& setup() const { return setup_; }

  /// Simulator::run until the queue drains.
  void run();

  /// The ScenarioResult fields the gate compares against run_scenario().
  prdrb::ScenarioResult result() const;

  /// Empty when every end-of-run invariant holds; otherwise the first
  /// violation.
  std::string check_invariants() const;

  const prdrb::Network& network() const { return *net_; }
  const prdrb::PolicyBundle& policy() const { return bundle_; }

 private:
  struct Decorators;

  std::string policy_name_;
  SpanRecorder* recorder_;
  SetupTimes setup_;
  std::unique_ptr<prdrb::Topology> topo_;
  prdrb::Simulator sim_;
  prdrb::PolicyBundle bundle_;
  std::unique_ptr<Decorators> deco_;
  std::unique_ptr<prdrb::Network> net_;
  std::unique_ptr<prdrb::MetricsCollector> metrics_;
  // Synthetic workloads.
  std::unique_ptr<prdrb::DestinationPattern> pattern_;
  std::unique_ptr<prdrb::BurstSchedule> schedule_;
  std::unique_ptr<prdrb::TrafficGenerator> gen_;
  std::unique_ptr<prdrb::UniformPattern> noise_pattern_;
  std::unique_ptr<prdrb::TrafficGenerator> noise_;
  // Trace workloads.
  std::unique_ptr<prdrb::TraceProgram> program_;
  std::unique_ptr<prdrb::TracePlayer> player_;
};

}  // namespace perfbench
