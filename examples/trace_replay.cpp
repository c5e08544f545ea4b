// Application trace replay: generate a synthetic Parallel Ocean Program
// logical trace, replay it over the simulated fat tree under PR-DRB, and
// report execution time, per-rank blocking (the Fig. 2.7 imbalance) and the
// predictive module's learning statistics.
//
//   ./build/examples/trace_replay [app] [policy]
//   app    in {pop, nas-lu, nas-mg-s, nas-mg-a, nas-mg-b, nas-ft-a,
//             nas-ft-b, lammps-chain, lammps-comb, sweep3d, smg2000}
//          (default pop)
//   policy any name make_policy knows (default pr-drb)
// The scenario (tree-64, the app, the policy) goes through check_scenario:
// an unknown app or policy exits 2 with the nearest known name suggested.
#include <algorithm>
#include <fstream>
#include <iostream>

#include "experiment/scenario.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"
#include "trace/player.hpp"
#include "util/table.hpp"

using namespace prdrb;

int main(int argc, char** argv) {
  ScenarioSpec sc;
  sc.topology = "tree-64";
  // DrbConfig{}: this example runs DRB's own 6/12 us zone thresholds, not
  // the evaluation's default_drb_config().
  sc.drb = DrbConfig{};
  TraceWorkload& w = sc.trace();
  w.app = argc > 1 ? argv[1] : "pop";
  w.scale.iterations = 8;
  w.scale.bytes_scale = 8.0;
  w.scale.compute_scale = 0.5;
  const std::string& app = w.app;
  const std::string policy_name = argc > 2 ? argv[2] : "pr-drb";
  Parsed<CheckedScenario> checked = check_scenario(policy_name, sc);
  if (!checked.ok()) {
    std::cerr << "error: " << checked.error().what() << "\n";
    return 2;
  }
  const Topology& topo = *checked.value().topology;
  PolicyBundle& bundle = checked.value().bundle;

  Simulator sim;
  Network net(sim, topo, sc.net, *bundle.policy);
  if (bundle.monitor) net.set_monitor(bundle.monitor.get());
  if (bundle.engine) {
    // Warm start from a previous run's exported database, if present.
    std::ifstream in("prdrb_solutions_" + app + ".txt");
    if (in) {
      const std::size_t n = bundle.engine->db().import_text(in);
      std::cout << "warm start: imported " << n
                << " saved solutions from a previous run (§5.2 static "
                   "variation)\n";
    }
  }
  MetricsCollector metrics(topo.num_nodes(), topo.num_routers());
  net.set_observer(&metrics);

  const TraceProgram prog = make_app_trace(app, topo.num_nodes(), w.scale);
  std::cout << "replaying " << prog.app_name() << " (" << prog.ranks()
            << " ranks, " << prog.total_events() << " trace events) under "
            << bundle.policy->name() << "\n";

  TracePlayer player(sim, net, prog);
  player.start();
  sim.run();

  if (!player.finished()) {
    std::cerr << "trace did not complete!\n";
    return 1;
  }
  std::cout << "execution time    : " << player.execution_time() * 1e3
            << " ms\n"
            << "messages sent     : " << player.messages_sent() << "\n"
            << "global avg latency: " << metrics.global_average_latency() * 1e6
            << " us\n"
            << "contention peak   : " << metrics.contention_map().peak() * 1e6
            << " us\n";

  // Communication imbalance: which ranks idled the most (Fig. 2.7's red
  // bars), as a fraction of the run.
  std::vector<std::pair<double, int>> blocked;
  for (int r = 0; r < prog.ranks(); ++r) {
    blocked.emplace_back(player.rank_blocked(r), r);
  }
  std::sort(blocked.rbegin(), blocked.rend());
  Table t({"rank", "blocked_ms", "% of runtime"});
  for (int i = 0; i < 5; ++i) {
    t.add_row({std::to_string(blocked[static_cast<std::size_t>(i)].second),
               Table::num(blocked[static_cast<std::size_t>(i)].first * 1e3, 4),
               Table::num(100.0 * blocked[static_cast<std::size_t>(i)].first /
                              player.execution_time(), 3)});
  }
  std::cout << "\nmost-blocked ranks (communication imbalance):\n";
  t.print(std::cout);

  if (bundle.engine) {
    const auto& db = bundle.engine->db();
    std::cout << "\npredictive module: " << db.size()
              << " congestion patterns saved, " << db.reused_patterns()
              << " re-identified, best solution re-applied " << db.max_reuse()
              << " time(s); " << bundle.monitor->detections()
              << " router congestion detections.\n";
    // Offline / static variation (thesis §5.2): persist the learned
    // solutions so a future run starts warm. Re-run this example and the
    // database below is pre-loaded before the first message.
    const std::string db_file = "prdrb_solutions_" + app + ".txt";
    std::ofstream out(db_file);
    db.export_text(out);
    std::cout << "solution database exported to " << db_file
              << " (delete it for a cold start).\n";
  }
  return 0;
}
