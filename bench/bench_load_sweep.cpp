// Supplementary to §4.2's metric definitions: the classic latency- and
// throughput-vs-offered-load characterization. "A key factor demanded to an
// interconnection network is the ability to handle high values of
// throughput keeping latency values as low as possible" — this bench shows
// where each policy's latency knee sits and verifies accepted load tracks
// offered load (lossless network, delivery ratio 1.0 after drain).
//
// The full (rate x policy) grid is submitted to the parallel sweep executor
// in one batch; results come back indexed by submission order, so the table
// is bit-identical at any --jobs value.
//
// Outputs besides the table: BENCH_load_sweep.json (the consolidated
// per-policy latency / delivery / events curve), the run manifest, and —
// with any probe output flag (--trace-out, --metrics-out, --stream-out,
// ...) — a serial instrumented probe of the pr-drb mid-load point whose
// output bytes are independent of --jobs.
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"

using namespace prdrb;
using namespace prdrb::bench;

namespace {

ScenarioSpec sweep_scenario(double rate) {
  ScenarioSpec sc;
  sc.topology = "mesh-8x8";
  sc.synthetic().pattern = "hotspot-cross";
  sc.synthetic().rate_bps = rate;
  sc.synthetic().bursts = 3;
  sc.synthetic().burst_len = 2e-3;
  sc.synthetic().gap_len = 2e-3;
  sc.synthetic().duration = 14e-3;
  sc.synthetic().noise_rate_bps = 40e6;
  return sc;
}

/// The consolidated machine-readable curve: one series per policy with
/// (offered_mbps, latency_us, delivery_ratio, events) points.
void write_curve_json(const std::string& path,
                      const std::vector<double>& rates,
                      const std::vector<std::string>& policies,
                      const std::vector<ScenarioResult>& results,
                      double wall_s) {
  obs::JsonWriter w;
  std::uint64_t total_events = 0;
  for (const ScenarioResult& r : results) total_events += r.events;
  w.begin_object();
  w.field("schema", "prdrb-load-sweep-v1");
  w.field("topology", "mesh-8x8");
  w.field("pattern", "hotspot-cross");
  w.field("wall_s", wall_s);
  w.field("events", total_events);
  w.field("events_per_sec",
          wall_s > 0 ? static_cast<double>(total_events) / wall_s : 0.0);
  w.key("policies").begin_array();
  for (std::size_t p = 0; p < policies.size(); ++p) {
    w.begin_object();
    w.field("policy", policies[p]);
    w.key("points").begin_array();
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const ScenarioResult& r = results[i * policies.size() + p];
      w.begin_object();
      w.field("offered_mbps", rates[i] / 1e6);
      w.field("latency_us", r.global_latency * 1e6);
      w.field("delivery_ratio", r.delivery_ratio);
      w.field("events", r.events);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  obs::write_text_file(path, w.str() + "\n");
}

}  // namespace

int main(int argc, char** argv) {
  BenchMain bench("bench_load_sweep", argc, argv, kProbeFlags);
  std::cout << "=== Load sweep: global latency vs offered load, 8x8 mesh "
               "hot-spot ===\n";
  const std::vector<double> rates = {200e6, 400e6, 600e6,
                                     800e6, 1000e6, 1200e6};
  const std::vector<std::string> policies = {"deterministic", "drb",
                                             "pr-drb"};
  std::vector<SweepJob> jobs;
  for (double rate : rates) {
    // --sdb-in warm-starts every job's solution database from a prior
    // export (EXPERIMENTS.md "cold vs warm convergence"); without the flag
    // this is the unchanged cold sweep.
    const ScenarioSpec sc = bench.warm_started(sweep_scenario(rate));
    for (const std::string& policy : policies) {
      jobs.push_back(SweepJob::make(policy, sc));
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = run_sweep(jobs);
  const double sweep_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  bench.record(results);
  bench.manifest().set_seed(sweep_scenario(rates[0]).seed);
  bench.manifest().add_config("topology", "mesh-8x8");
  bench.manifest().add_config("pattern", "hotspot-cross");
  bench.manifest().add_config("rates", std::to_string(rates.size()));
  bench.manifest().add_config("duration_ms", 14.0);

  Table t({"offered_Mbps", "det_us", "drb_us", "pr-drb_us", "delivery"});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const ScenarioResult& det = results[i * policies.size() + 0];
    const ScenarioResult& drb = results[i * policies.size() + 1];
    const ScenarioResult& pr = results[i * policies.size() + 2];
    t.add_row({Table::num(rates[i] / 1e6, 4), us(det.global_latency),
               us(drb.global_latency), us(pr.global_latency),
               Table::num(pr.delivery_ratio, 6)});
  }
  t.print(std::cout);
  std::cout << "\nshape: deterministic saturates first (latency explodes at "
               "the hot-spot's single-path capacity); the DRB family pushes "
               "the knee to higher loads by spreading over multi-step "
               "paths; delivery stays 1.0 everywhere (lossless).\n";

  write_curve_json("BENCH_load_sweep.json", rates, policies, results,
                   sweep_wall);

  // Instrumented probe (serial, fixed seed): the pr-drb mid-load point.
  if (bench.wants_probe()) {
    bench.probe_scenario("pr-drb", sweep_scenario(800e6));
  }
  return 0;
}
