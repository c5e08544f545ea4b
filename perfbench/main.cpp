// perfbench: end-to-end and per-layer benchmark of the PR-DRB simulator.
//
//   perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-dir DIR]
//   perfbench --self-test
//
// --trace 0 times whole run_scenario() calls, every observability sink
// detached, and prints the end-to-end metrics. --trace 1 alternates traced
// runs (timing decorators, layer_trace.hpp) with untraced ones and prints
// the per-layer metrics; the span file of the fastest traced run goes to
// DIR. Every run passes the correctness gate; failed runs are counted,
// never hidden. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "layer_trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using prdrb::ScenarioResult;
using prdrb::ScenarioSpec;

/// Host-time budget of one run; a slower run counts as failed.
constexpr double kRunBudgetS = 60;
/// Set-up builds before the first run and after every run; setup_s is
/// their median.
constexpr int kSetupBuilds = 3;
/// Timed runs at least, however short --seconds is.
constexpr std::size_t kMinTimedRuns = 2;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The shortest of the runs' host times. Other tenants of a shared host only
/// ever slow a run down (the same deterministic run has ranged over +60%
/// within one measurement window), so the fastest run is the steadiest
/// estimate of the program's own cost.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- correctness gate ---

/// Counts runs and failed runs. A run fails once, on the first check it
/// breaks; the reason goes to stderr.
class Gate {
 public:
  explicit Gate(std::string workload) : workload_(std::move(workload)) {}

  void record(const std::string& failure) {
    ++attempted_;
    if (failure.empty()) return;
    ++failed_;
    std::cerr << "perfbench: " << workload_ << ": run " << attempted_
              << " failed: " << failure << "\n";
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  std::string workload_;
  int attempted_ = 0;
  int failed_ = 0;
};

/// A run on its own: within budget, everything delivered, trace finished.
std::string run_failure(const ScenarioResult& r, double host_s) {
  std::ostringstream os;
  os << std::setprecision(17);
  if (host_s > kRunBudgetS) {
    os << "took " << host_s << " s, over the " << kRunBudgetS
       << " s budget";
  } else if (r.delivery_ratio != 1.0) {
    os << "delivery_ratio " << r.delivery_ratio << " != 1";
  } else if (r.exec_time < 0) {
    os << "trace did not finish (exec_time " << r.exec_time << ")";
  }
  return os.str();
}

/// A repeat of the same workload and seed reproduces every simulated
/// result bit for bit.
std::string repeat_failure(const ScenarioResult& first,
                           const ScenarioResult& r) {
  if (r == first) return {};
  std::ostringstream os;
  os << std::setprecision(17) << "result differs from the first run (events "
     << first.events << " vs " << r.events << ", packets " << first.packets
     << " vs " << r.packets << ", global latency " << first.global_latency
     << " vs " << r.global_latency << ")";
  return os.str();
}

/// The traced run reproduces the untraced run_scenario() result exactly.
std::string traced_failure(const ScenarioResult& untraced,
                           const ScenarioResult& traced) {
  std::ostringstream os;
  os << std::setprecision(17);
  auto check = [&](const char* name, auto a, auto b) {
    if (a != b && os.tellp() == 0) {
      os << "traced " << name << " " << b << " != untraced " << a;
    }
  };
  check("events", untraced.events, traced.events);
  check("packets", untraced.packets, traced.packets);
  check("global_latency", untraced.global_latency, traced.global_latency);
  check("mean_latency", untraced.mean_latency, traced.mean_latency);
  check("p50_latency", untraced.p50_latency, traced.p50_latency);
  check("p95_latency", untraced.p95_latency, traced.p95_latency);
  check("p99_latency", untraced.p99_latency, traced.p99_latency);
  check("peak_bin_latency", untraced.peak_bin_latency,
        traced.peak_bin_latency);
  check("map_peak", untraced.map_peak, traced.map_peak);
  check("map_mean", untraced.map_mean, traced.map_mean);
  check("delivery_ratio", untraced.delivery_ratio, traced.delivery_ratio);
  check("exec_time", untraced.exec_time, traced.exec_time);
  check("expansions", untraced.expansions, traced.expansions);
  check("installs", untraced.installs, traced.installs);
  check("trend_triggers", untraced.trend_triggers, traced.trend_triggers);
  check("patterns_saved", untraced.patterns_saved, traced.patterns_saved);
  check("patterns_reused", untraced.patterns_reused,
        traced.patterns_reused);
  check("max_reuse", untraced.max_reuse, traced.max_reuse);
  return os.str();
}

// --- runs ---

struct UntracedRun {
  ScenarioResult result;
  double host_s = 0;
  std::string failure;
};

/// One run_scenario() call, timed.
UntracedRun run_untraced(const Workload& w, const ScenarioSpec& spec) {
  UntracedRun u;
  const std::int64_t t0 = now_ns();
  try {
    u.result = prdrb::run_scenario(w.policy, spec);
  } catch (const std::exception& e) {
    u.failure = std::string("threw: ") + e.what();
  }
  u.host_s = seconds_since(t0);
  if (u.failure.empty()) u.failure = run_failure(u.result, u.host_s);
  return u;
}

struct TracedRun {
  ScenarioResult result;
  double host_s = 0;  // set-up, run and result, as run_scenario() does
  std::string failure;
  std::vector<Metric> layers;  // without the untraced-relative metrics
  SpanRecorder recorder;
};

/// The per-layer metrics one traced run yields by itself.
std::vector<Metric> layer_metrics(const Rig& rig, const ScenarioResult& r,
                                  const SpanRecorder& rec,
                                  const SpanCost& cost) {
  const prdrb::Network& net = rig.network();
  const prdrb::PolicyBundle& policy = rig.policy();
  double hops = 0, credit_stalls = 0, inject_stalls = 0;
  for (prdrb::RouterId id = 0; id < net.num_routers(); ++id) {
    const prdrb::Router& router = net.router(id);
    hops += static_cast<double>(router.packets_forwarded);
    for (const prdrb::OutputPort& port : router.ports) {
      credit_stalls += static_cast<double>(port.credit_stalls);
    }
  }
  for (prdrb::NodeId n = 0; n < net.num_nodes(); ++n) {
    inject_stalls += static_cast<double>(net.nic(n).inject_stalls);
  }
  const double expansions =
      policy.drb ? static_cast<double>(policy.drb->total_expansions()) : 0;
  const double contractions =
      policy.drb ? static_cast<double>(policy.drb->total_contractions()) : 0;
  const double detections =
      policy.monitor ? static_cast<double>(policy.monitor->detections()) : 0;
  double lookups = 0, hits = 0, saves = 0, installs = 0;
  if (policy.engine) {
    lookups = static_cast<double>(policy.engine->db().lookups());
    hits = static_cast<double>(policy.engine->db().hits());
    saves = static_cast<double>(policy.engine->db().saves());
    installs = static_cast<double>(policy.engine->installs());
  }
  auto calls = [&](Layer l) {
    return static_cast<double>(rec.totals(l).calls);
  };
  const double candidates = static_cast<double>(rec.msp_candidates());
  const double events = static_cast<double>(r.events);
  return {
      {"sim.events", events, "count"},
      {"sim.pending_peak", static_cast<double>(rec.pending_peak()), "count"},
      {"run.self_s", rec.self_s(Layer::kRun, cost), "s"},
      {"net.hops", hops, "count"},
      {"net.events_per_hop", ratio(events, hops), "ratio"},
      {"net.credit_stalls", credit_stalls, "count"},
      {"net.inject_stalls", inject_stalls, "count"},
      {"net.pool_cells", static_cast<double>(net.packet_pool().allocated()),
       "count"},
      {"topology.minimal_ports.calls", calls(Layer::kMinimalPorts), "count"},
      {"topology.minimal_ports.self_s", rec.self_s(Layer::kMinimalPorts, cost),
       "s"},
      {"topology.msp_candidates.calls", calls(Layer::kMspCandidates),
       "count"},
      {"topology.msp_candidates.self_s",
       rec.self_s(Layer::kMspCandidates, cost), "s"},
      {"topology.msp_candidates.candidates", candidates, "count"},
      {"routing.msp_yield", ratio(expansions, candidates), "ratio"},
      {"routing.select_port.calls", calls(Layer::kSelectPort), "count"},
      {"routing.select_port.self_s", rec.self_s(Layer::kSelectPort, cost),
       "s"},
      {"routing.choose_path.calls", calls(Layer::kChoosePath), "count"},
      {"routing.choose_path.self_s", rec.self_s(Layer::kChoosePath, cost),
       "s"},
      {"routing.on_ack.calls", calls(Layer::kOnAck), "count"},
      {"routing.on_ack.self_s", rec.self_s(Layer::kOnAck, cost), "s"},
      {"routing.expansions", expansions, "count"},
      {"routing.contractions", contractions, "count"},
      {"cfd.on_transmit.calls", calls(Layer::kCfd), "count"},
      {"cfd.on_transmit.self_s", rec.self_s(Layer::kCfd, cost), "s"},
      {"cfd.detection_ratio", ratio(detections, calls(Layer::kCfd)), "ratio"},
      {"sdb.lookups", lookups, "count"},
      {"sdb.hit_ratio", ratio(hits, lookups), "ratio"},
      {"sdb.saves", saves, "count"},
      {"sdb.installs", installs, "count"},
      {"metrics.observer.calls", calls(Layer::kObserver), "count"},
      {"metrics.observer.self_s", rec.self_s(Layer::kObserver, cost), "s"},
  };
}

/// One traced run: the same scenario built from the public constructors
/// with timing decorators slotted in.
TracedRun run_traced(const Workload& w, const ScenarioSpec& spec,
                     const SpanCost& cost) {
  TracedRun t;
  try {
    const std::int64_t t0 = now_ns();
    Rig rig(w, spec, &t.recorder);
    rig.run();
    t.result = rig.result();
    t.host_s = seconds_since(t0);
    t.failure = rig.check_invariants();
    if (t.failure.empty()) t.failure = run_failure(t.result, t.host_s);
    t.layers = layer_metrics(rig, t.result, t.recorder, cost);
  } catch (const std::exception& e) {
    t.failure = std::string("threw: ") + e.what();
  }
  return t;
}

/// Set-up samples: builds of the scenario, timed without running it. The
/// builds are spread over the measurement window, a few after each run, so
/// that a moment of contention on the shared host moves few of them.
struct SetupSamples {
  std::vector<double> total, topology, network, workload;

  void build(const Workload& w, const ScenarioSpec& spec, int n) {
    for (int i = 0; i < n; ++i) {
      const Rig rig(w, spec);
      total.push_back(rig.setup().total());
      topology.push_back(rig.setup().topology_s);
      network.push_back(rig.setup().network_s);
      workload.push_back(rig.setup().workload_s);
    }
  }
};

/// Simulated time to finish the workload: the trace's execution time, or
/// for open-loop traffic the end of the last metrics bin that saw a
/// delivery (the drain time, at bin resolution).
double sim_exec_s(const ScenarioResult& r, const ScenarioSpec& spec) {
  if (!spec.is_synthetic()) return r.exec_time;
  return static_cast<double>(r.series.size()) * spec.bin_width;
}

// --- the two modes ---

std::vector<Metric> measure_end_to_end(const Workload& w, std::uint64_t seed,
                                       double seconds, Gate& gate) {
  const ScenarioSpec spec = w.spec(seed, /*tiny=*/false);
  SetupSamples setup;
  setup.build(w, spec, kSetupBuilds);
  // The first run warms the allocator and caches and is the reference
  // every repeat must reproduce; it is not timed.
  const UntracedRun first = run_untraced(w, spec);
  gate.record(first.failure);
  if (!first.failure.empty()) return {};
  std::vector<double> walls;
  const std::int64_t t0 = now_ns();
  while (walls.size() < kMinTimedRuns || seconds_since(t0) < seconds) {
    const UntracedRun u = run_untraced(w, spec);
    gate.record(u.failure.empty() ? repeat_failure(first.result, u.result)
                                  : u.failure);
    if (!u.failure.empty()) break;
    walls.push_back(u.host_s);
    setup.build(w, spec, kSetupBuilds);
  }
  const ScenarioResult& r = first.result;
  const double wall = fastest(walls);
  std::cerr << "perfbench: " << w.name << ": " << walls.size()
            << " timed runs, fastest " << wall << " s, median "
            << median(walls) << " s\n";
  return {
      {"wall_s", wall, "s"},
      {"packets_per_s", ratio(static_cast<double>(r.packets), wall),
       "packets/s"},
      {"setup_s", median(setup.total), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_latency_us", r.global_latency * 1e6, "sim_us"},
      {"sim_p99_latency_us", r.p99_latency * 1e6, "sim_us"},
      {"sim_exec_ms", sim_exec_s(r, spec) * 1e3, "sim_ms"},
  };
}

std::vector<Metric> measure_layers(const Workload& w, std::uint64_t seed,
                                   double seconds,
                                   const std::string& trace_dir, Gate& gate) {
  const ScenarioSpec spec = w.spec(seed, /*tiny=*/false);
  const SpanCost cost = calibrate_span_cost();
  SetupSamples setup;
  setup.build(w, spec, kSetupBuilds);
  const UntracedRun first = run_untraced(w, spec);
  gate.record(first.failure);
  if (!first.failure.empty()) return {};
  // Counts repeat exactly across traced runs; times come from the fastest.
  std::vector<Metric> out;
  double traced_wall = 0;
  std::vector<double> untraced_walls;
  const std::int64_t t0 = now_ns();
  do {
    const TracedRun t = run_traced(w, spec, cost);
    gate.record(t.failure.empty() ? traced_failure(first.result, t.result)
                                  : t.failure);
    if (!t.failure.empty()) break;
    if (out.empty() || t.host_s < traced_wall) {
      out = t.layers;
      traced_wall = t.host_s;
      if (!trace_dir.empty()) {
        std::filesystem::create_directories(trace_dir);
        const std::string path = trace_dir + "/" + w.name + "-seed" +
                                 std::to_string(seed) + ".json";
        std::ofstream file(path);
        write_trace_json(file, w.name, seed, t.recorder, cost);
        if (!file) std::cerr << "perfbench: cannot write " << path << "\n";
      }
    }

    const UntracedRun u = run_untraced(w, spec);
    gate.record(u.failure.empty() ? repeat_failure(first.result, u.result)
                                  : u.failure);
    if (!u.failure.empty()) break;
    untraced_walls.push_back(u.host_s);
    setup.build(w, spec, kSetupBuilds);
  } while (seconds_since(t0) < seconds);
  if (out.empty() || untraced_walls.empty()) return {};

  const double untraced = fastest(untraced_walls);
  out.insert(out.begin() + 1,
             {"sim.events_per_s",
              ratio(static_cast<double>(first.result.events), untraced),
              "1/s"});
  out.push_back({"setup.topology_s", median(setup.topology), "s"});
  out.push_back({"setup.network_s", median(setup.network), "s"});
  out.push_back({"setup.workload_s", median(setup.workload), "s"});
  out.push_back({"tracing.overhead_pct",
                 100.0 * (ratio(traced_wall, untraced) - 1.0), "%"});
  return out;
}

// --- output ---

void print_metrics(const std::string& workload,
                   const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << std::left << std::setw(32) << workload << ' '
              << std::setw(36) << m.name << ' ' << std::setprecision(8)
              << m.value << ' ' << m.unit << '\n';
  }
}

void print_json(int attempted, int failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17) << "{\"correct\": "
     << (attempted > 0 && failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// --- self-test ---

/// Tiny runs of every workload through the gate, plus proof that the gate
/// can fail.
int self_test() {
  bool ok = true;
  auto expect = [&](bool cond, const std::string& what) {
    std::cout << (cond ? "ok    " : "FAIL  ") << what << '\n';
    ok = ok && cond;
  };
  const SpanCost cost = calibrate_span_cost(20000);
  for (const Workload& w : workloads()) {
    const ScenarioSpec spec = w.spec(11, /*tiny=*/true);
    Gate gate(w.name);
    const UntracedRun first = run_untraced(w, spec);
    gate.record(first.failure);
    const UntracedRun again = run_untraced(w, spec);
    gate.record(again.failure.empty()
                    ? repeat_failure(first.result, again.result)
                    : again.failure);
    const TracedRun traced = run_traced(w, spec, cost);
    gate.record(traced.failure.empty()
                    ? traced_failure(first.result, traced.result)
                    : traced.failure);
    expect(first.result.packets > 0, w.name + ": delivers packets");
    expect(gate.attempted() == 3 && gate.failed() == 0,
           w.name + ": a run, its repeat and its traced run pass the gate");
  }
  // A "repeat" at another seed must count as a failed run.
  const Workload& w = *find_workload("mesh32-uniform-prdrb");
  Gate gate(w.name + " (deliberate mismatch)");
  const UntracedRun a = run_untraced(w, w.spec(11, true));
  const UntracedRun b = run_untraced(w, w.spec(12, true));
  gate.record(a.failure);
  gate.record(b.failure.empty() ? repeat_failure(a.result, b.result)
                                : b.failure);
  expect(gate.attempted() == 2 && gate.failed() == 1,
         "a repeat at another seed counts in failed_runs");
  std::cout << (ok ? "self-test passed" : "self-test FAILED") << '\n';
  return ok ? 0 : 1;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 11;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string trace_dir;
};

void usage(std::ostream& os) {
  os << "usage: perfbench --workload <name|all> [--seed N] [--seconds S]\n"
        "                 [--trace 0|1] [--trace-dir DIR]\n"
        "       perfbench --self-test\n"
        "workloads:";
  for (const Workload& w : workloads()) os << ' ' << w.name;
  os << '\n';
}

/// Parses argv; false on a malformed or missing argument.
bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      opt.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        opt.workload = value;
        used = value.size();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value, &used);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value, &used);
        if (!(opt.seconds >= 0) || !std::isfinite(opt.seconds)) return false;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return false;
        opt.trace = value == "1";
        used = value.size();
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value;
        used = value.size();
      } else {
        return false;
      }
      if (used != value.size()) return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return opt.self_test || !opt.workload.empty();
}

int run(const Options& opt) {
  std::vector<const Workload*> selected;
  if (opt.workload == "all") {
    for (const Workload& w : workloads()) selected.push_back(&w);
  } else if (const Workload* w = find_workload(opt.workload)) {
    selected.push_back(w);
  } else {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    usage(std::cerr);
    return 2;
  }
  int attempted = 0, failed = 0;
  std::vector<Metric> reported;
  for (const Workload* w : selected) {
    Gate gate(w->name);
    const std::vector<Metric> metrics =
        opt.trace ? measure_layers(*w, opt.seed, opt.seconds, opt.trace_dir,
                                   gate)
                  : measure_end_to_end(*w, opt.seed, opt.seconds, gate);
    print_metrics(w->name, metrics);
    std::cout << std::left << std::setw(32) << w->name << ' '
              << std::setw(36) << "failed_runs" << ' ' << gate.failed()
              << " of " << gate.attempted() << " runs\n";
    attempted += gate.attempted();
    failed += gate.failed();
    for (const Metric& m : metrics) {
      reported.push_back(selected.size() == 1
                             ? m
                             : Metric{w->name + "." + m.name, m.value, m.unit});
    }
  }
  print_json(attempted, failed, reported);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt)) {
    perfbench::usage(std::cerr);
    return 2;
  }
  try {
    return opt.self_test ? perfbench::self_test() : perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
