// Reproduces thesis Figs. 4.24-4.26: LAMMPS molecular dynamics on the
// 64-node fat tree — latency map (Deterministic / DRB / PR-DRB), global
// latency & execution time, router contention, and the pattern-recognition
// statistics of the predictive module.
//
// Paper shape: DRB's map is ~65 % below Deterministic; PR-DRB maps are
// similar to DRB but global latency improves ~5 % over DRB (~36 % over
// Deterministic) and execution time ~6 % / ~37 %; the predictive module
// found 80 contending-flow patterns in the first stage, later re-identified
// 7, one of which was re-applied 279 times (Fig. 4.26b).
#include <iostream>

#include "app_figure.hpp"

using namespace prdrb;
using namespace prdrb::bench;

int main(int argc, char** argv) {
  BenchMain bench("bench_fig_4_24_lammps", argc, argv);
  std::cout << "=== Figs 4.24-4.26: LAMMPS (chain), 64-node fat tree ===\n";
  TraceScale scale;
  scale.iterations = 16;  // many timesteps: the repetitive phases
  scale.bytes_scale = 8.0;
  scale.compute_scale = 0.5;
  const auto sc = app_scenario("lammps-chain", "tree-64", scale);

  const auto results = run_policies({"deterministic", "drb", "pr-drb"}, sc);
  bench.record(results);
  bench.manifest().add_config("app", sc.trace().app);
  bench.manifest().add_config("topology", sc.topology);
  print_app_summary("summary (Figs 4.24/4.25):", results);

  const auto& det = results[0];
  const auto& drb = results[1];
  const auto& pr = results[2];
  std::cout << "\nFig 4.24 — map peak: drb vs det "
            << Table::num(improvement_pct(det.map_peak, drb.map_peak), 3)
            << " % (paper ~65 %), pr-drb vs det "
            << Table::num(improvement_pct(det.map_peak, pr.map_peak), 3)
            << " %\n";
  std::cout << "Fig 4.25a — global latency: pr-drb vs drb "
            << Table::num(improvement_pct(drb.global_latency,
                                          pr.global_latency), 3)
            << " % (paper ~5 %), pr-drb vs det "
            << Table::num(improvement_pct(det.global_latency,
                                          pr.global_latency), 3)
            << " % (paper ~36 %)\n";
  std::cout << "Fig 4.25b — execution time: pr-drb vs drb "
            << Table::num(improvement_pct(drb.exec_time, pr.exec_time), 3)
            << " % (paper ~6 %), pr-drb vs det "
            << Table::num(improvement_pct(det.exec_time, pr.exec_time), 3)
            << " % (paper ~37 %)\n";

  std::cout << "\nFig 4.26b — predictive pattern statistics: "
            << pr.patterns_saved << " contending-flow patterns saved, "
            << pr.patterns_reused << " re-identified, most-reused applied "
            << pr.max_reuse
            << " times (paper: 80 found, 7 repeated, one applied 279 "
               "times).\n";

  std::vector<ScenarioResult> drb_vs_pr{drb, pr};
  const auto hot = hottest_routers(drb, 1);
  for (RouterId r : hot) print_router_series(r, drb_vs_pr);
  return 0;
}
