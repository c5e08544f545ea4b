// Reproduces thesis Figs. 4.27-4.30 (and Appendix A.3): the Parallel Ocean
// Program on the 64-node fat tree, across the full policy set —
// Deterministic, Cyclic, Random, DRB, PR-DRB, FR-DRB and predictive FR-DRB.
//
// Paper shape (Fig. 4.27): Deterministic and Cyclic reach ~16 us average
// latency, Random ~14 us; PR-DRB beats them by ~38 % and the predictive
// FR-DRB by up to ~57 % vs the worst case; each predictive variant improves
// its non-predictive base by a small global margin (~2 %) while clearly
// reducing router contention (Fig. 4.28); execution time: the DRB family
// ~27 % better than the oblivious policies. Figs. 4.29/4.30: contention
// maps — PR-DRB ~87 % below Cyclic/Deterministic and ~50 % below Random.
#include <iostream>

#include "app_figure.hpp"

using namespace prdrb;
using namespace prdrb::bench;

int main(int argc, char** argv) {
  BenchMain bench("bench_fig_4_27_pop", argc, argv);
  std::cout << "=== Figs 4.27-4.30: POP, 64-node fat tree, full policy set "
               "===\n";
  TraceScale scale;
  scale.iterations = 10;
  scale.bytes_scale = 8.0;
  scale.compute_scale = 0.5;
  const auto sc = app_scenario("pop", "tree-64", scale);

  const auto results =
      run_policies({"deterministic", "cyclic", "random", "drb", "pr-drb",
                    "fr-drb", "pr-fr-drb"},
                   sc);
  bench.record(results);
  bench.manifest().add_config("app", sc.trace().app);
  bench.manifest().add_config("topology", sc.topology);
  print_app_summary("Fig 4.27 — global latency & execution time:", results);

  auto by_name = [&](const std::string& n) -> const ScenarioResult& {
    for (const auto& r : results) {
      if (r.policy == n) return r;
    }
    throw std::logic_error("missing " + n);
  };
  const auto& det = by_name("deterministic");
  const auto& drb = by_name("drb");
  const auto& pr = by_name("pr-drb");
  const auto& fr = by_name("fr-drb");
  const auto& prfr = by_name("pr-fr-drb");

  std::cout << "\nheadline comparisons:\n";
  Table c({"comparison", "measured_%", "paper_%"});
  c.add_row({"pr-drb vs deterministic (latency)",
             Table::num(improvement_pct(det.global_latency, pr.global_latency), 3),
             "~38"});
  c.add_row({"pr-fr-drb vs worst oblivious (latency)",
             Table::num(improvement_pct(det.global_latency, prfr.global_latency), 3),
             "~57"});
  c.add_row({"pr-drb vs drb (latency)",
             Table::num(improvement_pct(drb.global_latency, pr.global_latency), 3),
             "~2"});
  c.add_row({"pr-fr-drb vs fr-drb (latency)",
             Table::num(improvement_pct(fr.global_latency, prfr.global_latency), 3),
             "~2"});
  c.add_row({"drb-family vs deterministic (exec time)",
             Table::num(improvement_pct(det.exec_time, drb.exec_time), 3),
             "~27"});
  c.add_row({"pr-drb vs deterministic (contention map peak)",
             Table::num(improvement_pct(det.map_peak, pr.map_peak), 3),
             "~87"});
  c.print(std::cout);

  // Fig 4.28 / A.5-A.7: contention series of the hottest routers,
  // DRB vs PR-DRB and FR-DRB vs predictive FR-DRB.
  std::vector<ScenarioResult> pair1{drb, pr};
  std::vector<ScenarioResult> pair2{fr, prfr};
  const auto hot = hottest_routers(drb, 2);
  for (RouterId r : hot) {
    print_router_series(r, pair1);
    print_router_series(r, pair2);
  }
  std::cout << "\npredictive-module statistics (Fig 4.28 discussion): "
            << "pr-drb saved " << pr.patterns_saved << " patterns, reused "
            << pr.patterns_reused << ", max reuse " << pr.max_reuse
            << " (paper: 143 found / 40 repeated at one router; 160/69 at "
               "another, re-applied 87 times).\n";
  return 0;
}
