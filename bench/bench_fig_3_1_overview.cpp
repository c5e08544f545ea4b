// Reproduces the thesis Fig. 3.1 behaviour overview, plus ablations of the
// two central PR-DRB design choices (DESIGN.md "ablation candidates"):
//   * per-burst learning: in traffic stage 1 DRB and PR-DRB behave alike
//     (PR-DRB is learning); from stage 2 PR-DRB re-applies saved solutions
//     and the latency transient shrinks;
//   * notification mode: destination-based (§3.2.2) vs router-based early
//     notification (§3.4.1);
//   * similarity threshold for situation matching (80 % in §3.2.8).
#include <iostream>
#include <iterator>
#include <vector>

#include "bench_common.hpp"

using namespace prdrb;
using namespace prdrb::bench;

namespace {

/// Average latency per burst window (burst i covers
/// [start + i*period, start + i*period + burst_len] plus its drain gap).
std::vector<double> per_burst_latency(const ScenarioResult& r,
                                      const SyntheticWorkload& sc) {
  std::vector<double> out(static_cast<std::size_t>(sc.bursts), 0.0);
  std::vector<double> weight(static_cast<std::size_t>(sc.bursts), 0.0);
  const double period = sc.burst_len + sc.gap_len;
  for (const auto& [t, v] : r.series) {
    if (v <= 0) continue;
    const double rel = t - 0.5e-3;
    if (rel < 0) continue;
    const auto idx = static_cast<std::size_t>(rel / period);
    if (idx >= out.size()) continue;
    out[idx] += v;
    weight[idx] += 1;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (weight[i] > 0) out[i] /= weight[i];
  }
  return out;
}

ScenarioSpec base_scenario() {
  ScenarioSpec sc;
  sc.topology = "mesh-8x8";
  sc.synthetic().pattern = "hotspot-cross";
  sc.synthetic().rate_bps = 1000e6;
  sc.synthetic().bursts = 5;
  sc.synthetic().burst_len = 2e-3;
  sc.synthetic().gap_len = 2e-3;
  sc.synthetic().duration = 25e-3;
  sc.synthetic().noise_rate_bps = 50e6;
  sc.bin_width = 0.5e-3;
  return sc;
}

}  // namespace

int main(int argc, char** argv) {
  BenchMain bench("bench_fig_3_1_overview", argc, argv);
  std::cout << "=== Fig 3.1: PR-DRB learns in stage 1, re-applies from "
               "stage 2 ===\n";
  const auto sc = base_scenario();
  const auto results =
      run_policies({"drb", "pr-drb", "pr-drb@router"}, sc);
  bench.record(results);
  bench.manifest().set_seed(sc.seed);
  bench.manifest().add_config("topology", sc.topology);
  bench.manifest().add_config("pattern", sc.synthetic().pattern);
  const ScenarioResult& drb = results[0];
  const ScenarioResult& pr_dest = results[1];
  const ScenarioResult& pr_router = results[2];

  const auto b_drb = per_burst_latency(drb, sc.synthetic());
  const auto b_dest = per_burst_latency(pr_dest, sc.synthetic());
  const auto b_router = per_burst_latency(pr_router, sc.synthetic());

  Table t({"burst", "drb_us", "pr-drb(dest)_us", "pr-drb(router)_us"});
  for (std::size_t i = 0; i < b_drb.size(); ++i) {
    t.add_row({std::to_string(i + 1), Table::num(b_drb[i] * 1e6, 4),
               Table::num(b_dest[i] * 1e6, 4),
               Table::num(b_router[i] * 1e6, 4)});
  }
  t.print(std::cout);
  std::cout << "\nburst 1 is the learning stage (curves overlap); later "
               "bursts show the saved-solution effect (points (1)-(4) of "
               "Fig 3.1).\n";

  std::cout << "\nsummary:\n";
  Table s({"policy", "global_us", "installs", "patterns_saved",
           "patterns_reused", "max_reuse"});
  for (const auto* r : {&drb, &pr_dest, &pr_router}) {
    s.add_row({r->policy, us(r->global_latency), std::to_string(r->installs),
               std::to_string(r->patterns_saved),
               std::to_string(r->patterns_reused),
               std::to_string(r->max_reuse)});
  }
  s.print(std::cout);

  // The ablations are five more pr-drb runs of the same spec: three
  // similarity thresholds, then the trend extension off and on.
  const double similarities[] = {0.5, 0.8, 0.95};
  const bool trends[] = {false, true};
  std::vector<SweepJob> jobs;
  for (double simthr : similarities) {
    ScenarioSpec spec = sc;
    spec.prdrb.similarity = simthr;
    jobs.push_back(SweepJob::make("pr-drb", spec));
  }
  for (bool trend : trends) {
    ScenarioSpec spec = sc;
    spec.prdrb.trend_prediction = trend;
    jobs.push_back(SweepJob::make("pr-drb", spec));
  }
  const std::vector<ScenarioResult> ablations = run_sweep(jobs);

  std::cout << "\n--- ablation: similarity threshold (0.8 in the paper) "
               "---\n";
  Table a({"similarity", "global_us", "installs", "saved"});
  for (std::size_t i = 0; i < std::size(similarities); ++i) {
    const ScenarioResult& r = ablations[i];
    a.add_row({Table::num(similarities[i], 3), us(r.global_latency),
               std::to_string(r.installs), std::to_string(r.patterns_saved)});
  }
  a.print(std::cout);
  std::cout << "\nlow thresholds over-match (wrong solutions installed), "
               "very high thresholds under-match (fewer reuses); 0.8 "
               "balances both (§3.2.8).\n";

  std::cout << "\n--- extension (§5.2): latency-trend congestion prediction "
               "---\n";
  Table tr({"trend_prediction", "global_us", "trend_triggers", "installs"});
  for (std::size_t i = 0; i < std::size(trends); ++i) {
    const ScenarioResult& r = ablations[std::size(similarities) + i];
    tr.add_row({trends[i] ? "on" : "off", us(r.global_latency),
                std::to_string(r.trend_triggers), std::to_string(r.installs)});
  }
  tr.print(std::cout);
  std::cout << "\ntrend prediction reacts while latency is still rising "
               "through the working zone, trading extra speculative path "
               "openings for an earlier response.\n";
  return 0;
}
