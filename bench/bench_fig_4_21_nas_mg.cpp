// Reproduces thesis Figs. 4.21-4.23: NAS MG global latency & execution time
// for classes S, A and B (Deterministic / DRB / PR-DRB), plus the
// contention-latency time series of congested routers for class A.
//
// Paper shape: class S shows no improvement (negligible contention);
// classes A and B show ~65 % / ~60 % latency reduction from Deterministic
// to DRB; DRB and PR-DRB reach similar final global latency but PR-DRB's
// router contention is lower once learned solutions are applied; execution
// time improves ~8 % (A) and ~23 % (B) over Deterministic.
#include <iostream>

#include "app_figure.hpp"

using namespace prdrb;
using namespace prdrb::bench;

int main(int argc, char** argv) {
  BenchMain bench("bench_fig_4_21_nas_mg", argc, argv);
  bench.manifest().add_config("topology", "tree-64");
  std::cout << "=== Figs 4.21-4.23: NAS MG classes S/A/B, 64-node fat tree "
               "===\n";
  struct ClassRow {
    char cls;
    std::vector<ScenarioResult> results;
  };
  std::vector<ClassRow> rows;
  for (char cls : {'S', 'A', 'B'}) {
    TraceScale scale;
    scale.iterations = 8;
    scale.bytes_scale = 8.0;
    scale.compute_scale = 0.5;
    const std::string app = std::string("nas-mg-") + static_cast<char>(std::tolower(cls));
    auto sc = app_scenario(app, "tree-64", scale);
    ClassRow row{cls, run_policies({"deterministic", "drb", "pr-drb"}, sc)};
    bench.record(row.results);
    rows.push_back(std::move(row));
  }

  std::cout << "\nFig 4.21a — global network latency (us):\n";
  Table lat({"class", "deterministic", "drb", "pr-drb", "det->drb_%",
             "drb->pr_%"});
  for (const auto& row : rows) {
    lat.add_row({std::string(1, row.cls), us(row.results[0].global_latency),
                 us(row.results[1].global_latency),
                 us(row.results[2].global_latency),
                 Table::num(improvement_pct(row.results[0].global_latency,
                                            row.results[1].global_latency), 3),
                 Table::num(improvement_pct(row.results[1].global_latency,
                                            row.results[2].global_latency), 3)});
  }
  lat.print(std::cout);
  std::cout << "(paper: class S ~0 %, class A ~65 %, class B ~60 % for "
               "det->drb)\n";

  std::cout << "\nFig 4.21b — execution time (ms):\n";
  Table et({"class", "deterministic", "drb", "pr-drb", "drb_vs_det_%"});
  for (const auto& row : rows) {
    et.add_row({std::string(1, row.cls),
                Table::num(row.results[0].exec_time * 1e3, 4),
                Table::num(row.results[1].exec_time * 1e3, 4),
                Table::num(row.results[2].exec_time * 1e3, 4),
                Table::num(improvement_pct(row.results[0].exec_time,
                                           row.results[1].exec_time), 3)});
  }
  et.print(std::cout);
  std::cout << "(paper: ~8 % for class A, ~23 % for class B)\n";

  // Figs 4.22/4.23: contention series of the two hottest class-A routers.
  const auto& class_a = rows[1].results;
  std::vector<ScenarioResult> drb_vs_pr{class_a[1], class_a[2]};
  const auto hot = hottest_routers(class_a[1], 2);
  for (RouterId r : hot) print_router_series(r, drb_vs_pr);
  std::cout << "\n(Figs 4.22/4.23 shape: the curves overlap while PR-DRB "
               "is learning, then PR-DRB stays below DRB after applying "
               "its best known solutions.)\n";
  return 0;
}
