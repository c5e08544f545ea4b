#include "experiment/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "metrics/collector.hpp"
#include "net/dragonfly.hpp"
#include "net/kary_ntree.hpp"
#include "net/mesh2d.hpp"
#include "net/mesh_nd.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/probe.hpp"
#include "obs/scorecard.hpp"
#include "obs/stream.hpp"
#include "obs/tracer.hpp"
#include "routing/adaptive.hpp"
#include "routing/oblivious.hpp"
#include "routing/ugal.hpp"
#include "sim/simulator.hpp"
#include "trace/player.hpp"
#include "traffic/hotspot.hpp"
#include "traffic/source.hpp"

namespace prdrb {

DrbConfig default_drb_config() {
  DrbConfig cfg;
  cfg.threshold_low = 8e-6;
  cfg.threshold_high = 15e-6;
  cfg.max_paths = 4;  // §4.6.3
  return cfg;
}

namespace {

const std::vector<std::string_view> kPolicyNames{
    "deterministic", "random",  "cyclic",  "adaptive", "minimal",
    "valiant",       "ugal-l",  "drb",     "fr-drb",   "pr-drb",
    "pr-fr-drb"};

/// Concrete exemplars of every topology family, for typo suggestions.
const std::vector<std::string_view> kTopologyNames{
    "mesh-8x8", "torus-8x8", "cube-4",   "tree-16",  "tree-32",
    "tree-64",  "tree-256",  "kary-4-3", "dragonfly-4:9:2:4"};

/// The largest grid: 2^20 routers, what cube-20 builds.
constexpr std::int64_t kMaxGridRouters = std::int64_t{1} << 20;

/// Strict non-negative integer parse for topology extents (std::stoi would
/// throw, which is exactly what the Parsed contract removes).
std::optional<int> parse_extent(std::string_view s) {
  if (s.empty() || s.size() > 6) return std::nullopt;
  int v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + (c - '0');
  }
  return v;
}

struct PathFlag {
  std::string_view name;
  std::string OutputFlags::*field;
};

constexpr PathFlag kPathFlags[] = {
    {"--trace-out", &OutputFlags::trace_out},
    {"--metrics-out", &OutputFlags::metrics_out},
    {"--telemetry-out", &OutputFlags::telemetry_out},
    {"--heatmap-out", &OutputFlags::heatmap_out},
    {"--scorecard-out", &OutputFlags::scorecard_out},
    {"--stream-out", &OutputFlags::stream_out},
    {"--watchdog-out", &OutputFlags::watchdog_out},
    {"--sdb-in", &OutputFlags::sdb_in},
    {"--sdb-out", &OutputFlags::sdb_out},
    {"--manifest-out", &OutputFlags::manifest_out},
};

ParseError policy_error(const std::string& name, bool router_based) {
  ParseError e;
  e.input = name;
  e.kind = "policy";
  e.message = "unknown policy";
  const std::string base =
      router_based ? name.substr(0, name.size() - 7) : name;
  e.suggestion = nearest_name(base, kPolicyNames);
  if (!e.suggestion.empty() && router_based) e.suggestion += "@router";
  return e;
}

ParseError topology_error(const std::string& name, std::string message) {
  ParseError e;
  e.input = name;
  e.kind = "topology";
  e.message = std::move(message);
  e.suggestion = nearest_name(name, kTopologyNames);
  return e;
}

template <typename T>
std::string str(T value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

/// "<field> must be <range>, got '<value>'".
template <typename T>
ParseError field_error(const std::string& field, T value,
                       const std::string& range) {
  return ParseError{str(value), "spec", field + " must be " + range + ", got",
                    ""};
}

bool positive(double v) { return std::isfinite(v) && v > 0; }
bool non_negative(double v) { return std::isfinite(v) && v >= 0; }
/// In [0, cap]; NaN fails both comparisons.
bool within(double v, double cap) { return v >= 0 && v <= cap; }

/// A name table's names, for nearest-name suggestions.
template <typename Table>
std::vector<std::string_view> names_of(const Table& table) {
  std::vector<std::string_view> names;
  for (const auto& entry : table) names.push_back(entry.name);
  return names;
}

/// The traffic of pattern `name` on `topo` (named `topology`), or why that
/// pattern cannot run there.
Parsed<CheckedScenario::Traffic> resolve_traffic(const std::string& name,
                                                 const std::string& topology,
                                                 const Topology& topo) {
  const auto unfit = [&](const std::string& what) {
    return ParseError{name, "pattern",
                      topology + " " + what + " needed for pattern", ""};
  };
  CheckedScenario::Traffic t;
  if (name == "hotspot-cross" || name == "hotspot-double") {
    const auto* mesh = dynamic_cast<const Mesh2D*>(&topo);
    if (!mesh) return unfit("is not the 2D mesh or torus");
    // The double layout reaches one router past each of its two centres,
    // at x = w/3 and 2w/3.
    if (name == "hotspot-double" && mesh->width() < 4) {
      return unfit("is narrower than the 4 routers");
    }
    auto hp = std::make_unique<HotspotPattern>(
        name == "hotspot-cross" ? make_mesh_cross_hotspot(*mesh, 8)
                                : make_mesh_double_hotspot(*mesh));
    t.sources = hp->sources();
    t.pattern = std::move(hp);
    return t;
  }
  if (name == "adversarial-group") {
    // Group-shift permutation: every terminal targets its peer in the next
    // group, funnelling all minimal traffic of a group onto the q parallel
    // global channels toward its successor.
    const auto* df = dynamic_cast<const Dragonfly*>(&topo);
    if (!df) return unfit("is not the dragonfly");
    t.pattern = std::make_unique<GroupShiftPattern>(df->num_nodes(),
                                                    df->a() * df->p());
    return t;
  }
  const auto table = pattern_table();
  const auto p = std::ranges::find(table, name, &NamedPattern::name);
  if (p == table.end()) {
    std::vector<std::string_view> names = names_of(table);
    names.insert(names.end(),
                 {"hotspot-cross", "hotspot-double", "adversarial-group"});
    return ParseError{name, "pattern", "unknown pattern",
                      nearest_name(name, names)};
  }
  const int nodes = topo.num_nodes();
  if (p->needs_power_of_two &&
      !std::has_single_bit(static_cast<unsigned>(nodes))) {
    return unfit("has " + std::to_string(nodes) +
                 " nodes, not the power of two");
  }
  t.pattern = p->make(nodes);
  return t;
}

}  // namespace

Parsed<PolicyBundle> make_policy(const std::string& name, DrbConfig drb,
                                 std::uint64_t seed, PrDrbConfig pcfg) {
  PolicyBundle b;
  const bool router_based = name.ends_with("@router");
  const std::string base =
      router_based ? name.substr(0, name.size() - 7) : name;
  const NotificationMode mode = router_based
                                    ? NotificationMode::kRouterBased
                                    : NotificationMode::kDestinationBased;
  pcfg.notification = mode;
  if (base == "deterministic") {
    b.policy = std::make_unique<DeterministicPolicy>();
  } else if (base == "random") {
    b.policy = std::make_unique<RandomPolicy>(seed);
  } else if (base == "cyclic") {
    b.policy = std::make_unique<CyclicPolicy>();
  } else if (base == "adaptive") {
    b.policy = std::make_unique<AdaptivePolicy>();
  } else if (base == "minimal") {
    b.policy = std::make_unique<MinimalPolicy>();
  } else if (base == "valiant") {
    b.policy = std::make_unique<ValiantPolicy>(seed);
  } else if (base == "ugal-l") {
    b.policy = std::make_unique<UgalPolicy>(UgalPolicy::Config{}, seed);
  } else if (base == "drb") {
    auto p = std::make_unique<DrbPolicy>(drb, seed);
    b.drb = p.get();
    b.policy = std::move(p);
  } else if (base == "fr-drb") {
    auto p = std::make_unique<FrDrbPolicy>(drb, FrDrbConfig{}, seed);
    b.drb = p.get();
    b.policy = std::move(p);
  } else if (base == "pr-drb") {
    auto p = std::make_unique<PrDrbPolicy>(drb, pcfg, seed);
    b.drb = p.get();
    b.engine = &p->engine();
    b.policy = std::move(p);
    b.monitor = std::make_unique<CongestionDetector>(mode);
  } else if (base == "pr-fr-drb") {
    auto p = std::make_unique<PrFrDrbPolicy>(drb, FrDrbConfig{}, pcfg, seed);
    b.drb = p.get();
    b.engine = &p->engine();
    b.policy = std::move(p);
    b.monitor = std::make_unique<CongestionDetector>(mode);
  } else {
    return policy_error(name, router_based);
  }
  return b;
}

Parsed<std::unique_ptr<Topology>> make_topology(const std::string& name) {
  using Result = Parsed<std::unique_ptr<Topology>>;
  // "mesh-AxB" / "torus-AxB" build the 2D model; three or more extents
  // ("mesh-4x4x4") build the N-dimensional variant.
  auto parse_extents =
      [&](std::size_t prefix) -> std::optional<std::vector<int>> {
    std::vector<int> dims;
    std::size_t pos = prefix;
    while (pos < name.size()) {
      const auto x = name.find('x', pos);
      const std::string_view tok =
          x == std::string::npos
              ? std::string_view(name).substr(pos)
              : std::string_view(name).substr(pos, x - pos);
      const auto extent = parse_extent(tok);
      if (!extent || *extent < 1) return std::nullopt;
      dims.push_back(*extent);
      if (x == std::string::npos) break;
      pos = x + 1;
    }
    if (dims.size() < 2) return std::nullopt;
    return dims;
  };
  auto build_grid = [&](std::size_t prefix, bool wrap) -> Result {
    const auto dims = parse_extents(prefix);
    if (!dims) return topology_error(name, "bad topology extents");
    // Counted in 64 bits and stopped past the cap, so no product of
    // six-digit extents overflows.
    std::int64_t routers = 1;
    for (const int e : *dims) {
      routers *= e;
      if (routers > kMaxGridRouters) break;
    }
    if (routers < 2 || routers > kMaxGridRouters) {
      return topology_error(name, "grid needs 2 to 1048576 routers");
    }
    if (dims->size() == 2) {
      return std::unique_ptr<Topology>(
          std::make_unique<Mesh2D>((*dims)[0], (*dims)[1], wrap));
    }
    return std::unique_ptr<Topology>(
        std::make_unique<MeshND>(*dims, wrap));
  };
  auto tree = [](int k, int n) -> Result {
    return std::unique_ptr<Topology>(std::make_unique<KAryNTree>(k, n));
  };
  if (name.starts_with("mesh-")) return build_grid(5, false);
  if (name.starts_with("torus-")) return build_grid(6, true);
  if (name.starts_with("cube-")) {
    // "cube-n": the n-dimensional hypercube (2-ary n-cube).
    const auto n = parse_extent(std::string_view(name).substr(5));
    if (!n || *n < 1 || *n > 20) {
      return topology_error(name, "bad hypercube dimension");
    }
    return std::unique_ptr<Topology>(std::make_unique<MeshND>(
        std::vector<int>(static_cast<std::size_t>(*n), 2),
        /*wraparound=*/false));
  }
  if (name == "tree-16") return tree(2, 4);
  if (name == "tree-32") return tree(2, 5);
  if (name == "tree-64") return tree(4, 3);
  if (name == "tree-256") return tree(4, 4);
  if (name.starts_with("kary-")) {
    const auto dash = name.find('-', 5);
    if (dash == std::string::npos) {
      return topology_error(name, "bad k-ary n-tree spec");
    }
    const auto k = parse_extent(std::string_view(name).substr(5, dash - 5));
    const auto n = parse_extent(std::string_view(name).substr(dash + 1));
    if (!k || !n || *k < 2 || *n < 1) {
      return topology_error(name, "bad k-ary n-tree spec");
    }
    return tree(*k, *n);
  }
  if (name.starts_with("dragonfly-")) {
    // "dragonfly-a:g:h:p": a routers/group, g groups, h global links per
    // router, p terminals per router (Kim et al.'s canonical parameters).
    std::vector<int> v;
    std::size_t pos = 10;
    while (pos <= name.size()) {
      const auto colon = name.find(':', pos);
      const std::string_view tok =
          colon == std::string::npos
              ? std::string_view(name).substr(pos)
              : std::string_view(name).substr(pos, colon - pos);
      const auto field = parse_extent(tok);
      if (!field) {
        return topology_error(name,
                              "bad dragonfly spec (want dragonfly-a:g:h:p)");
      }
      v.push_back(*field);
      if (colon == std::string::npos) break;
      pos = colon + 1;
    }
    if (v.size() != 4) {
      return topology_error(name,
                            "bad dragonfly spec (want dragonfly-a:g:h:p)");
    }
    const int a = v[0], g = v[1], h = v[2], p = v[3];
    if (a < 2 || g < 2 || h < 1 || p < 1) {
      return topology_error(
          name, "dragonfly needs a >= 2, g >= 2, h >= 1, p >= 1");
    }
    if ((a * h) % (g - 1) != 0) {
      return topology_error(name,
                            "dragonfly global links must spread evenly "
                            "over the other groups: a*h mod (g-1) == 0");
    }
    return std::unique_ptr<Topology>(std::make_unique<Dragonfly>(a, g, h, p));
  }
  return topology_error(name, "unknown topology");
}

double improvement_pct(double baseline, double value) {
  // A baseline of 0 (e.g. a run that delivered no packets) or a non-finite
  // input would poison every bench table built on top of this; report the
  // degenerate comparison once and call it "no improvement".
  if (!(baseline > 0) || !std::isfinite(baseline) || !std::isfinite(value)) {
    std::cerr << "[prdrb] improvement_pct: degenerate baseline/value ("
              << baseline << ", " << value << "); reporting 0 %\n";
    return 0.0;
  }
  return 100.0 * (baseline - value) / baseline;
}

double Replication::ci95() const {
  return runs > 1 ? 1.96 * stddev / std::sqrt(static_cast<double>(runs)) : 0.0;
}

Replication summarize(const std::vector<double>& values) {
  Replication r;
  r.runs = static_cast<int>(values.size());
  if (values.empty()) return r;
  r.min = values.front();
  r.max = values.front();
  double sum = 0;
  for (double v : values) {
    sum += v;
    r.min = std::min(r.min, v);
    r.max = std::max(r.max, v);
  }
  r.mean = sum / static_cast<double>(r.runs);
  if (r.runs > 1) {
    double sq = 0;
    for (double v : values) sq += (v - r.mean) * (v - r.mean);
    r.stddev = std::sqrt(sq / static_cast<double>(r.runs - 1));
  }
  return r;
}

// run_synthetic_replicated lives in experiment/runner.cpp: replication is a
// sweep and goes through the parallel executor.

namespace {

void fill_common(ScenarioResult& r, const MetricsCollector& m,
                 const PolicyBundle& b, int num_routers,
                 const std::vector<RouterId>& watch) {
  r.global_latency = m.global_average_latency();
  r.mean_latency = m.packet_latency().overall_mean();
  r.peak_bin_latency = m.latency_series().peak_mean();
  r.map_peak = m.contention_map().peak();
  r.map_mean = m.contention_map().mean_over_active();
  r.delivery_ratio = m.delivery_ratio();
  r.packets = m.packets_delivered();
  r.p50_latency = m.latency_histogram().p50();
  r.p95_latency = m.latency_histogram().p95();
  r.p99_latency = m.latency_histogram().p99();
  if (b.drb) r.expansions = b.drb->total_expansions();
  if (b.engine) {
    r.installs = b.engine->installs();
    r.trend_triggers = b.engine->trend_triggers();
    r.patterns_saved = b.engine->db().size();
    r.patterns_reused = b.engine->db().reused_patterns();
    r.max_reuse = b.engine->db().max_reuse();
  }
  for (std::size_t i = 0; i < m.latency_series().bins(); ++i) {
    r.series.emplace_back(m.latency_series().bin_time(i),
                          m.latency_series().bin_mean(i));
  }
  r.router_map.resize(static_cast<std::size_t>(num_routers));
  for (RouterId router = 0; router < num_routers; ++router) {
    r.router_map[static_cast<std::size_t>(router)] =
        m.contention_map().average(router);
  }
  for (RouterId router : watch) {
    const TimeSeries* s = m.router_series(router);
    if (!s) continue;
    std::vector<std::pair<double, double>> pts;
    for (std::size_t i = 0; i < s->bins(); ++i) {
      pts.emplace_back(s->bin_time(i), s->bin_mean(i));
    }
    r.router_series.emplace_back(router, std::move(pts));
  }
}

/// Run-local observability state: the probe bound to the network, the
/// registry's gauges, the stall watchdog, and the periodic work done at
/// every window boundary of the run. Built after the network and the
/// policy, destroyed before them.
class RunProbes {
 public:
  /// Binds one probe over the tracer, recorder, scorecard, stream and the
  /// counter registry's push counters to the network (the policy and the
  /// CFD reach it from there), registers the gauges and arms the watchdog.
  RunProbes(Simulator& sim, Network& net, PolicyBundle& b,
            const ObsSinks& sinks);

  /// Freezes the gauges registered above, which close over the simulator,
  /// the network and the policy: the caller's registry stays safe to read
  /// after the run, also when the run throws.
  ~RunProbes() {
    if (sinks_.counters) sinks_.counters->freeze_gauges();
  }
  RunProbes(const RunProbes&) = delete;
  RunProbes& operator=(const RunProbes&) = delete;

  /// The work at window boundary `t`: a registry sample at every boundary,
  /// then, from the second boundary on, the watchdog poll and the stream's
  /// window roll.
  void at_boundary(SimTime t) {
    if (sinks_.counters) sinks_.counters->sample(t);
    if (t == 0) return;
    if (watchdog_) watchdog_->poll(t);
    if (sinks_.stream) sinks_.stream->roll(t);
  }

  /// End-of-run teardown: watchdog finalize (catches true deadlock: no
  /// events means the run drained before the window elapsed), dump
  /// hand-off, scorecard and stream finalize. Runs after the last window.
  void finalize(SimTime now) {
    if (watchdog_) {
      watchdog_->finalize();
      if (sinks_.watchdog_dump) *sinks_.watchdog_dump = watchdog_->dump_json();
    }
    // Close open multipath intervals and unresolved congestion episodes at
    // the final virtual time so exports never carry dangling state.
    if (sinks_.scorecard) sinks_.scorecard->finalize(now);
    // Emit the trailing "summary" NDJSON line and detach the stream hooks.
    if (sinks_.stream) sinks_.stream->finalize(now);
  }

 private:
  ObsSinks sinks_;
  std::unique_ptr<obs::Probe> probe_;
  std::unique_ptr<obs::StallWatchdog> watchdog_;
};

RunProbes::RunProbes(Simulator& sim, Network& net, PolicyBundle& b,
                     const ObsSinks& sinks)
    : sinks_(sinks) {
  if (sinks.stream) {
    // Pin the window width to the boundary cadence BEFORE binding, so every
    // roll closes exactly one window; snapshots land every
    // ceil(stream_interval / cadence) windows.
    const SimTime cadence = sinks.sample_interval;
    const double per = sinks.stream_interval / cadence;
    sinks.stream->configure_cadence(
        cadence, per > 1 ? static_cast<std::size_t>(std::llround(
                               std::ceil(per - 1e-9)))
                         : 1);
  }
  if (sinks.tracer || sinks.recorder || sinks.scorecard || sinks.stream ||
      sinks.counters) {
    probe_ = std::make_unique<obs::Probe>(obs::Probe::Sinks{
        .tracer = sinks.tracer,
        .recorder = sinks.recorder,
        .scorecard = sinks.scorecard,
        .stream = sinks.stream,
        .counters = sinks.counters});
    net.bind_probe(probe_.get());
  }
  if (sinks.counters) {
    obs::CounterRegistry& reg = *sinks.counters;
    net.register_gauges(reg);
    // Pull gauges over run-local counts, read when the registry samples.
    const auto count = [&reg](const char* name, auto read) {
      reg.gauge(name, [read] { return static_cast<double>(read()); });
    };
    count("sim.events", [&sim] { return sim.events_executed(); });
    // Cancelled-but-unpurged pending entries (FR-DRB watchdog churn).
    const EventQueue* q = &sim.queue();
    count("sim.sched.tombstones", [q] { return q->pending_cancellations(); });
    if (DrbPolicy* drb = b.drb) {
      count("routing.expansions", [drb] { return drb->total_expansions(); });
      count("routing.contractions",
            [drb] { return drb->total_contractions(); });
    }
    if (PredictiveEngine* eng = b.engine) {
      count("routing.sdb.installs", [eng] { return eng->installs(); });
      count("routing.sdb.size", [eng] { return eng->db().size(); });
      count("routing.sdb.lookups", [eng] { return eng->db().lookups(); });
      count("routing.sdb.hits", [eng] { return eng->db().hits(); });
      // Degenerate probes (empty signatures) are counted apart so the
      // hit-rate derived from lookups/hits is not skewed by them.
      count("routing.sdb.empty_probes",
            [eng] { return eng->db().empty_probes(); });
      // Solutions dropped by the capacity bound (PrDrbConfig::sdb_capacity;
      // stays 0 while the database is unbounded).
      count("routing.sdb.evictions", [eng] { return eng->db().evictions(); });
    }
    if (CongestionDetector* mon = b.monitor.get()) {
      count("routing.cfd.detections", [mon] { return mon->detections(); });
    }
    // Out-of-domain timestamp clamps across every registry series in this
    // run. Registered here — not in the registry constructor — so a bare
    // registry contains exactly what its owner created.
    obs::CounterRegistry* regp = &reg;
    count("metrics.timeseries.clamped",
          [regp] { return regp->timeseries_clamped(); });
  }
  if (sinks.watchdog_window > 0) {
    watchdog_ = std::make_unique<obs::StallWatchdog>(
        net, sim, sinks.recorder, sinks.watchdog_window);
    if (sinks.watchdog_stream) {
      watchdog_->set_stream(sinks.watchdog_stream);
    }
  }
}

}  // namespace

Parsed<CheckedScenario> check_scenario(const std::string& policy,
                                       const ScenarioSpec& spec) {
  Parsed<std::unique_ptr<Topology>> topology = make_topology(spec.topology);
  if (!topology.ok()) return topology.error();
  Parsed<PolicyBundle> bundle = make_policy(policy, spec.drb, 7, spec.prdrb);
  if (!bundle.ok()) return bundle.error();
  CheckedScenario out{std::move(topology.value()), std::move(bundle.value()),
                      {}};
  if (!spec.is_synthetic()) {
    const TraceWorkload& w = spec.trace();
    if (std::ranges::find(app_table(), w.app, &NamedApp::name) ==
        app_table().end()) {
      return ParseError{w.app, "app", "unknown app",
                        nearest_name(w.app, names_of(app_table()))};
    }
    const TraceScale& s = w.scale;
    if (s.iterations < 1 || s.iterations > kMaxTraceIterations) {
      return field_error("iterations", s.iterations,
                         "in [1, " + str(kMaxTraceIterations) + "]");
    }
    if (!within(s.bytes_scale, kMaxTraceBytesScale)) {
      return field_error("bytes_scale", s.bytes_scale,
                         "in [0, " + str(kMaxTraceBytesScale) + "]");
    }
    if (!within(s.compute_scale, kMaxTraceComputeScale)) {
      return field_error("compute_scale", s.compute_scale,
                         "in [0, " + str(kMaxTraceComputeScale) + "]");
    }
    return out;
  }
  const SyntheticWorkload& w = spec.synthetic();
  Parsed<CheckedScenario::Traffic> traffic =
      resolve_traffic(w.pattern, spec.topology, *out.topology);
  if (!traffic.ok()) return traffic.error();
  out.traffic = std::move(traffic.value());
  if (!positive(w.rate_bps)) {
    return field_error("rate_bps", w.rate_bps, "finite and > 0");
  }
  if (!positive(w.duration)) {
    return field_error("duration", w.duration, "finite and > 0");
  }
  if (!positive(w.burst_len)) {
    return field_error("burst_len", w.burst_len, "finite and > 0");
  }
  if (!non_negative(w.gap_len)) {
    return field_error("gap_len", w.gap_len, "finite and >= 0");
  }
  if (!non_negative(w.noise_rate_bps)) {
    return field_error("noise_rate_bps", w.noise_rate_bps, "finite and >= 0");
  }
  if (w.bursts < 0) return field_error("bursts", w.bursts, ">= 0");
  const double offered = out.topology->num_nodes() *
                         (w.rate_bps + w.noise_rate_bps) * w.duration /
                         (8.0 * spec.net.packet_bytes);
  if (!(offered <= kMaxOfferedPackets)) {
    return field_error(
        "offered packets (nodes x (rate_bps + noise_rate_bps) x duration / "
        "packet bits)",
        offered, "at most " + str(kMaxOfferedPackets));
  }
  return out;
}

ScenarioResult run_scenario(const std::string& policy_name,
                            const ScenarioSpec& sc) {
  CheckedScenario checked = check_scenario(policy_name, sc).value_or_throw();
  const Topology& topo = *checked.topology;
  PolicyBundle& bundle = checked.bundle;
  Simulator sim;
  Network net(sim, topo, sc.net, *bundle.policy);
  MetricsCollector metrics(topo.num_nodes(), topo.num_routers(),
                           sc.bin_width);
  for (RouterId r : sc.watch) metrics.watch_router(r);
  net.set_observer(&metrics);
  if (bundle.monitor) net.set_monitor(bundle.monitor.get());
  if (bundle.engine && !sc.sdb_in.empty()) {
    // Warm start (thesis §5.2 "static variation"): pre-load solutions
    // exported by a prior run before any traffic flows.
    std::ifstream in(sc.sdb_in, std::ios::binary);
    if (!in) {
      throw std::runtime_error("cannot open solution database: " +
                               sc.sdb_in);
    }
    bundle.engine->db().import_text(in);
  }
  RunProbes probes(sim, net, bundle, sc.sinks);
  // Every run steps through the same window grid, sinks or not, so it ends
  // on the first boundary after it drains whatever is attached.
  const auto run = [&] {
    sim.run_windows(sc.sinks.sample_interval,
                    [&probes](SimTime t) { probes.at_boundary(t); });
    probes.finalize(sim.now());
  };

  ScenarioResult r;
  r.policy = policy_name;

  if (sc.is_synthetic()) {
    const SyntheticWorkload& w = sc.synthetic();
    TrafficConfig tc;
    tc.rate_bps = w.rate_bps;
    tc.message_bytes = sc.net.packet_bytes;
    tc.stop = w.duration;

    std::unique_ptr<BurstSchedule> schedule;
    if (w.bursts > 0) {
      schedule = std::make_unique<BurstSchedule>(0.5e-3, w.burst_len,
                                                 w.gap_len, w.bursts);
    }
    TrafficGenerator gen(sim, net, *checked.traffic.pattern, tc, sc.seed,
                         std::move(checked.traffic.sources), schedule.get());
    gen.start();

    std::unique_ptr<UniformPattern> noise_pattern;
    std::unique_ptr<TrafficGenerator> noise;
    if (w.noise_rate_bps > 0) {
      noise_pattern = std::make_unique<UniformPattern>(topo.num_nodes());
      TrafficConfig nc = tc;
      nc.rate_bps = w.noise_rate_bps;
      noise = std::make_unique<TrafficGenerator>(sim, net, *noise_pattern,
                                                 nc, sc.seed + 1);
      noise->start();
    }

    run();  // drains: generation stops at w.duration
  } else {
    const TraceWorkload& w = sc.trace();
    const TraceProgram prog =
        make_app_trace(w.app, topo.num_nodes(), w.scale);
    TracePlayer player(sim, net, prog);
    player.start();
    run();
    r.exec_time = player.finished() ? player.execution_time() : -1.0;
  }

  r.events = sim.events_executed();
  fill_common(r, metrics, bundle, topo.num_routers(), sc.watch);
  if (bundle.engine && !sc.sdb_out.empty()) {
    // Deterministic sorted export (binary mode: no platform newline
    // translation) — byte-identical across runs and jobs.
    std::ofstream out(sc.sdb_out, std::ios::binary);
    if (!out) {
      throw std::runtime_error("cannot write solution database: " +
                               sc.sdb_out);
    }
    bundle.engine->db().export_text(out);
  }
  return r;
}

bool OutputFlags::observes() const {
  return !trace_out.empty() || !metrics_out.empty() ||
         !telemetry_out.empty() || !heatmap_out.empty() ||
         !scorecard_out.empty() || !stream_out.empty() || watchdog > 0;
}

Parsed<std::string> parse_output_flag(int argc, char** argv, int& i,
                                      OutputFlags& flags) {
  const std::string_view arg = argv[i];
  if (arg == "--no-manifest") {
    flags.manifest = false;
    return std::string(arg);
  }
  if (arg == "--watchdog") {
    flags.watchdog = kDefaultWatchdogWindow;
    return std::string(arg);
  }
  const std::string name(flag_name(arg));
  std::string* path = nullptr;
  for (const PathFlag& f : kPathFlags) {
    if (name == f.name) path = &(flags.*f.field);
  }
  double* seconds = nullptr;
  if (name == "--stream-interval") seconds = &flags.stream_interval;
  // A bare --watchdog, taken above, never consumes the next argument, so
  // this one carries its window inline.
  if (name == "--watchdog") seconds = &flags.watchdog;
  if (!path && !seconds) return std::string();

  Parsed<std::string> value = flag_value(argc, argv, i);
  if (!value.ok()) return value;
  if (path) {
    *path = std::move(value.value());
    return name;
  }
  const Parsed<double> v = parse_number<double>(name, value.value());
  if (!v.ok() || !(v.value() > 0)) {
    return ParseError{value.value(), "flag",
                      name + " needs a positive number of seconds, got", ""};
  }
  *seconds = v.value();
  return name;
}

ScenarioResult run_observed(const std::string& policy, ScenarioSpec sc,
                            const OutputFlags& flags) {
  obs::Tracer tracer;
  obs::CounterRegistry counters(sc.bin_width);
  obs::FlightRecorder recorder(512);
  obs::Scorecard scorecard;
  obs::StreamTelemetry stream;
  std::string dump;
  if (!flags.trace_out.empty()) sc.sinks.tracer = &tracer;
  if (!flags.metrics_out.empty()) sc.sinks.counters = &counters;
  if (!flags.scorecard_out.empty()) sc.sinks.scorecard = &scorecard;
  // The stream is the per-link telemetry behind all three outputs.
  if (!flags.stream_out.empty() || !flags.telemetry_out.empty() ||
      !flags.heatmap_out.empty()) {
    sc.sinks.stream = &stream;
    if (flags.stream_interval > 0) {
      sc.sinks.stream_interval = flags.stream_interval;
    }
  }
  if (flags.watchdog > 0) {
    sc.sinks.recorder = &recorder;
    sc.sinks.watchdog_window = flags.watchdog;
    sc.sinks.watchdog_dump = &dump;
  }
  ScenarioResult r = run_scenario(policy, sc);
  if (!flags.trace_out.empty()) tracer.write_file(flags.trace_out);
  if (!flags.metrics_out.empty()) counters.write_file(flags.metrics_out);
  if (!flags.telemetry_out.empty()) {
    stream.write_telemetry_file(flags.telemetry_out);
  }
  if (!flags.heatmap_out.empty()) {
    stream.write_heatmap_file(flags.heatmap_out,
                              *make_topology(sc.topology).value_or_throw());
  }
  if (!flags.scorecard_out.empty()) scorecard.write_file(flags.scorecard_out);
  if (!flags.stream_out.empty()) stream.write_file(flags.stream_out);
  if (!flags.watchdog_out.empty() && !dump.empty()) {
    obs::write_text_file(flags.watchdog_out, dump);
  }
  return r;
}

}  // namespace prdrb
