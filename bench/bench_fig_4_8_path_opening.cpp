// Reproduces the path-opening procedure analysis of thesis §4.5.1
// (Figs. 4.8 & 4.9): scripted hot-spot situations on the 8x8 mesh showing
// DRB's gradual alternative-path aperture.
//
// Situation 1 (Fig. 4.8): colliding west->east flows; DRB opens paths one
// at a time until latency stabilizes — and the newly opened paths interact
// with a previously unaffected flow, which then opens its own alternative.
// Situations 2 & 3 (Fig. 4.9): one long flow crossing two separate
// congested areas; notification is slow because the ACK itself crosses the
// congestion, motivating the predictive approach (§4.5.1's conclusion).
#include <iostream>

#include "bench_common.hpp"
#include "obs/probe.hpp"
#include "obs/tracer.hpp"

using namespace prdrb;
using namespace prdrb::bench;

namespace {

struct HotspotRun {
  Simulator sim;
  std::unique_ptr<Mesh2D> mesh = std::make_unique<Mesh2D>(8, 8);
  NetConfig cfg;
  DrbPolicy policy{default_drb_config(), 7};
  std::unique_ptr<Network> net;
  std::unique_ptr<MetricsCollector> metrics;

  HotspotRun() {
    net = std::make_unique<Network>(sim, *mesh, cfg, policy);
    metrics = std::make_unique<MetricsCollector>(64, 64, 0.5e-3);
    net->set_observer(metrics.get());
  }
};

void report_flows(HotspotRun& p, const HotspotPattern& pat, const char* title) {
  std::cout << "\n" << title << "\n";
  Table t({"flow", "open_paths", "expansions", "mp_latency_us"});
  for (const auto& [s, d] : pat.flows()) {
    const Metapath* mp = p.policy.find_metapath(s, d);
    t.add_row({std::to_string(s) + "->" + std::to_string(d),
               std::to_string(p.policy.open_paths(s, d)),
               std::to_string(mp ? mp->expansions : 0),
               mp ? us(mp->mp_latency) : "0"});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr std::string_view kTraceOnly[] = {"--trace-out"};
  BenchMain bench("bench_fig_4_8_path_opening", argc, argv, kTraceOnly);
  std::cout << "=== Figs 4.8/4.9: DRB path-opening procedures under "
               "scripted hot-spots ===\n";
  {
    HotspotRun p;
    // The scripted hot-spot is a natural tracing subject: bind a probe
    // with the lifecycle tracer when --trace-out was given.
    obs::Tracer tracer;
    obs::Probe probe({.tracer = &tracer});
    if (!bench.options().trace_out.empty()) p.net->bind_probe(&probe);
    const HotspotPattern pat = make_mesh_cross_hotspot(*p.mesh, 8);
    TrafficConfig tc;
    tc.rate_bps = 1200e6;
    tc.stop = 4e-3;
    TrafficGenerator gen(p.sim, *p.net, pat, tc, 3, pat.sources());
    gen.start();
    // Sample the number of open paths over time for the first flow.
    const auto [fs, fd] = pat.flows().front();
    Table series({"time_ms", "open_paths(flow " + std::to_string(fs) + "->" +
                                 std::to_string(fd) + ")"});
    for (int i = 1; i <= 10; ++i) {
      p.sim.schedule_at(i * 0.4e-3, [&p, &series, fs = fs, fd = fd, i] {
        series.add_row({Table::num(i * 0.4, 3),
                        std::to_string(p.policy.open_paths(fs, fd))});
      });
    }
    p.sim.run();
    std::cout << "\nsituation 1 — gradual aperture (one path at a time):\n";
    series.print(std::cout);
    report_flows(p, pat, "final state per flow:");
    std::cout << "global avg latency: " << us(p.metrics->global_average_latency())
              << " us, expansions total: " << p.policy.total_expansions()
              << "\n";
    if (!bench.options().trace_out.empty()) {
      tracer.write_file(bench.options().trace_out);
    }
  }
  {
    HotspotRun p;
    const HotspotPattern pat = make_mesh_double_hotspot(*p.mesh);
    TrafficConfig tc;
    tc.rate_bps = 1200e6;
    tc.stop = 4e-3;
    TrafficGenerator gen(p.sim, *p.net, pat, tc, 3, pat.sources());
    gen.start();
    p.sim.run();
    report_flows(p, pat,
                 "situations 2&3 — long flow crossing two congested areas "
                 "(first row is the long flow):");
    const auto [ls, ld] = pat.flows().front();
    const Metapath* long_mp = p.policy.find_metapath(ls, ld);
    std::cout << "long flow opened "
              << (long_mp ? long_mp->expansions : 0)
              << " alternative path(s); its notifications crossed both "
                 "congested areas — the costly loop PR-DRB's saved "
                 "solutions remove (§4.5.1).\n";
  }
  return 0;
}
