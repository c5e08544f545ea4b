#include "workloads.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>

#include "layer_trace.hpp"
#include "trace/generators.hpp"
#include "traffic/hotspot.hpp"

namespace perfbench {

namespace {

using prdrb::ScenarioSpec;

// Metrics bins of 10 us on the open-loop workloads, so that the drain time
// (sim_exec_ms) resolves to 10 us instead of the default 1 ms.
constexpr prdrb::SimTime kOpenLoopBinWidth = 10e-6;

// Run sizes. wall_s is the fastest of the timed runs in the window, and on
// a shared host a short run is more likely than a long one to fall in a
// quiet moment, so each workload is as short as its simulated metrics allow:
// shorter kary1024 or mesh8 runs move p99 across a histogram bucket edge on
// some seeds.

// The scale scenario: mesh-32x32 past saturation, where CFD contender
// selection and MSP enumeration do the most work. Open loop.
ScenarioSpec mesh32_uniform_prdrb(std::uint64_t seed, bool tiny) {
  ScenarioSpec s;
  s.topology = "mesh-32x32";
  s.seed = seed;
  s.bin_width = kOpenLoopBinWidth;
  prdrb::SyntheticWorkload& w = s.synthetic();
  w.pattern = "uniform";
  w.rate_bps = 400e6;
  w.bursts = 0;
  w.duration = tiny ? 0.05e-3 : 0.2e-3;
  return s;
}

// The bypass control for core and routing (adaptive: no CFD, MSP, ACK or
// SDB calls) and the only workload that stalls on credits: 128 KB router
// buffers instead of the thesis' 2 MB. Open loop.
ScenarioSpec kary1024_uniform_adaptive_128k(std::uint64_t seed, bool tiny) {
  ScenarioSpec s;
  s.topology = "kary-4-5";
  s.seed = seed;
  s.bin_width = kOpenLoopBinWidth;
  s.net.buffer_bytes = 128 * 1024;
  prdrb::SyntheticWorkload& w = s.synthetic();
  w.pattern = "uniform";
  w.rate_bps = 800e6;
  w.bursts = 0;
  w.duration = tiny ? 0.05e-3 : 1.0e-3;
  return s;
}

// The thesis-scale predictive path: repeating hot-spot bursts that the
// solution database learns and re-applies (its read side). Open loop.
// Under 40 Mb/s of noise the run is bimodal across seeds (mean latency
// ~8 or ~12.5 us, p99 178-750 us); 200 Mb/s keeps every seed in one regime
// and p99 inside one histogram bucket.
ScenarioSpec mesh8_hotspot_prdrb(std::uint64_t seed, bool tiny) {
  ScenarioSpec s;
  s.topology = "mesh-8x8";
  s.seed = seed;
  s.bin_width = kOpenLoopBinWidth;
  prdrb::SyntheticWorkload& w = s.synthetic();
  w.pattern = "hotspot-cross";
  w.rate_bps = 1000e6;
  w.bursts = tiny ? 3 : 16;
  w.burst_len = 2e-3;
  w.gap_len = 2e-3;
  w.noise_rate_bps = 200e6;
  // The first burst starts at 0.5 ms; generation stops after the last one.
  w.duration = 0.5e-3 + w.bursts * (w.burst_len + w.gap_len);
  return s;
}

// The only trace replay: closed loop (ranks block on receives), the trace
// layer and the write side of the solution database. Trace generators take
// no seed, so every seed gives the same run.
ScenarioSpec tree256_lammps_prdrb(std::uint64_t seed, bool tiny) {
  ScenarioSpec s;
  s.topology = "tree-256";
  s.seed = seed;
  prdrb::TraceWorkload& t = s.trace();
  t.app = "lammps-comb";
  t.scale.iterations = tiny ? 2 : 4;
  return s;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"mesh32-uniform-prdrb", "pr-drb", mesh32_uniform_prdrb},
      {"kary1024-uniform-adaptive-128k", "adaptive",
       kary1024_uniform_adaptive_128k},
      {"mesh8-hotspot-prdrb", "pr-drb", mesh8_hotspot_prdrb},
      {"tree256-lammps-prdrb", "pr-drb", tree256_lammps_prdrb},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

struct Rig::Decorators {
  Decorators(const prdrb::Topology& topo, prdrb::RoutingPolicy& policy,
             SpanRecorder& rec)
      : topology(topo, rec), policy(policy, rec) {}

  TimedTopology topology;
  TimedPolicy policy;
  std::optional<TimedMonitor> monitor;
  std::optional<TimedObserver> observer;
};

Rig::Rig(const Workload& w, const ScenarioSpec& spec, SpanRecorder* recorder)
    : policy_name_(w.policy), recorder_(recorder) {
  const std::int64_t t0 = now_ns();
  topo_ = prdrb::make_topology(spec.topology).value_or_throw();
  const std::int64_t t1 = now_ns();

  // run_scenario seeds the policy with 7 and applies spec.prdrb; the
  // workloads keep spec.prdrb at the defaults make_policy uses.
  bundle_ = prdrb::make_policy(w.policy, spec.drb, 7).value_or_throw();
  const prdrb::Topology* topo = topo_.get();
  prdrb::RoutingPolicy* policy = bundle_.policy.get();
  if (recorder_) {
    recorder_->watch(&sim_);
    deco_ = std::make_unique<Decorators>(*topo_, *bundle_.policy, *recorder_);
    topo = &deco_->topology;
    policy = &deco_->policy;
  }
  net_ = std::make_unique<prdrb::Network>(sim_, *topo, spec.net, *policy);
  metrics_ = std::make_unique<prdrb::MetricsCollector>(
      topo_->num_nodes(), topo_->num_routers(), spec.bin_width);
  for (prdrb::RouterId r : spec.watch) metrics_->watch_router(r);
  prdrb::NetworkObserver* observer = metrics_.get();
  prdrb::RouterMonitor* monitor = bundle_.monitor.get();
  if (deco_) {
    observer = &deco_->observer.emplace(*metrics_, *recorder_);
    if (monitor) monitor = &deco_->monitor.emplace(*monitor, *recorder_);
  }
  net_->set_observer(observer);
  if (monitor) net_->set_monitor(monitor);
  const std::int64_t t2 = now_ns();

  if (spec.is_synthetic()) {
    const prdrb::SyntheticWorkload& s = spec.synthetic();
    std::vector<prdrb::NodeId> sources;  // empty: every node injects
    if (s.pattern == "hotspot-cross") {
      const auto* mesh = dynamic_cast<const prdrb::Mesh2D*>(topo_.get());
      if (!mesh) throw std::invalid_argument("hotspot-cross needs a mesh");
      auto hotspot = std::make_unique<prdrb::HotspotPattern>(
          prdrb::make_mesh_cross_hotspot(*mesh, 8));
      sources = hotspot->sources();
      pattern_ = std::move(hotspot);
    } else {
      pattern_ = prdrb::make_pattern(s.pattern, topo_->num_nodes());
    }
    prdrb::TrafficConfig tc;
    tc.rate_bps = s.rate_bps;
    tc.message_bytes = spec.net.packet_bytes;
    tc.stop = s.duration;
    if (s.bursts > 0) {
      schedule_ = std::make_unique<prdrb::BurstSchedule>(
          0.5e-3, s.burst_len, s.gap_len, s.bursts);
    }
    gen_ = std::make_unique<prdrb::TrafficGenerator>(
        sim_, *net_, *pattern_, tc, spec.seed, sources, schedule_.get());
    gen_->start();
    if (s.noise_rate_bps > 0) {
      noise_pattern_ =
          std::make_unique<prdrb::UniformPattern>(topo_->num_nodes());
      prdrb::TrafficConfig nc = tc;
      nc.rate_bps = s.noise_rate_bps;
      noise_ = std::make_unique<prdrb::TrafficGenerator>(
          sim_, *net_, *noise_pattern_, nc, spec.seed + 1);
      noise_->start();
    }
  } else {
    const prdrb::TraceWorkload& t = spec.trace();
    program_ = std::make_unique<prdrb::TraceProgram>(
        prdrb::make_app_trace(t.app, topo_->num_nodes(), t.scale));
    player_ = std::make_unique<prdrb::TracePlayer>(sim_, *net_, *program_);
    player_->start();
  }
  const std::int64_t t3 = now_ns();
  setup_ = {static_cast<double>(t1 - t0) * 1e-9,
            static_cast<double>(t2 - t1) * 1e-9,
            static_cast<double>(t3 - t2) * 1e-9};
}

Rig::~Rig() {
  if (recorder_) recorder_->watch(nullptr);
}

void Rig::run() {
  if (recorder_) {
    Span root(*recorder_, Layer::kRun);
    sim_.run();
  } else {
    sim_.run();
  }
}

prdrb::ScenarioResult Rig::result() const {
  const prdrb::MetricsCollector& m = *metrics_;
  prdrb::ScenarioResult r;
  r.policy = policy_name_;
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
  r.events = sim_.events_executed();
  if (player_) {
    r.exec_time = player_->finished() ? player_->execution_time() : -1.0;
  }
  if (bundle_.drb) r.expansions = bundle_.drb->total_expansions();
  if (bundle_.engine) {
    r.installs = bundle_.engine->installs();
    r.trend_triggers = bundle_.engine->trend_triggers();
    r.patterns_saved = bundle_.engine->db().size();
    r.patterns_reused = bundle_.engine->db().reused_patterns();
    r.max_reuse = bundle_.engine->db().max_reuse();
  }
  return r;
}

std::string Rig::check_invariants() const {
  const prdrb::Network& net = *net_;
  std::ostringstream os;
  if (net.packet_pool().outstanding() != 0) {
    os << "packet_pool().outstanding() = " << net.packet_pool().outstanding();
    return os.str();
  }
  for (prdrb::RouterId r = 0; r < net.num_routers(); ++r) {
    const prdrb::Router& router = net.router(r);
    for (int vn = 0; vn < prdrb::kNumVirtualNetworks; ++vn) {
      if (net.buffer_used(r, vn) != 0) {
        os << "buffer_used(" << r << ", " << vn
           << ") = " << net.buffer_used(r, vn);
        return os.str();
      }
      if (!router.waiters[static_cast<std::size_t>(vn)].empty()) {
        os << "router " << r << " still has waiters on vn " << vn;
        return os.str();
      }
    }
    for (std::size_t p = 0; p < router.ports.size(); ++p) {
      if (!router.ports[p].queue.empty()) {
        os << "router " << r << " port " << p << " still queues packets";
        return os.str();
      }
    }
  }
  for (prdrb::NodeId n = 0; n < net.num_nodes(); ++n) {
    const prdrb::Nic& nic = net.nic(n);
    if (!nic.inject_queue.empty() || !nic.rx.empty()) {
      os << "nic " << n << " still holds packets (inject queue "
         << nic.inject_queue.size() << ", rx " << nic.rx.size() << ")";
      return os.str();
    }
  }
  return {};
}

}  // namespace perfbench
