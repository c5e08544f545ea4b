// prdrb_sim — command-line simulation driver over the experiment harness.
//
// Run any topology / policy / workload combination without writing code:
//
//   ./build/examples/prdrb_sim --topology mesh-8x8 --pattern hotspot-cross
//   ./build/examples/prdrb_sim --topology tree-64 --policy drb --app pop
//   ./build/examples/prdrb_sim --help
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "experiment/manifest.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "util/table.hpp"

using namespace prdrb;

namespace {

void usage() {
  std::cout <<
      R"(prdrb_sim — PR-DRB interconnection-network simulator

options (synthetic traffic):
  --topology <name>   mesh-WxH | torus-WxH | N-D grids (mesh-4x4x4, ...) |
                      cube-N | tree-{16,32,64,256} | kary-K-N |
                      dragonfly-A:G:H:P (A routers/group, G groups, H global
                      links/router, P terminals/router; default tree-64)
  --policy <name>     deterministic | random | cyclic | adaptive | minimal |
                      valiant | ugal-l | drb | fr-drb | pr-drb | pr-fr-drb
                      (append @router for router-based notification;
                      default pr-drb)
  --pattern <name>    uniform | bit-reversal | perfect-shuffle |
                      matrix-transpose | bit-complement | tornado |
                      neighbor | butterfly | hotspot-cross | hotspot-double |
                      adversarial-group (dragonfly only: next-group shift);
                      the bit permutations need a power-of-two node count,
                      hotspot-* a 2D mesh or torus (hotspot-double at least
                      4 routers wide)
  --rate <bps>        per-node injection rate (default 400e6)
  --duration <s>      simulated seconds (default 10e-3)
  --bursts <n>        bursty injection: n bursts of --burst-len (default 0
                      = continuous)
  --burst-len <s>     burst length (default 3e-3)
  --gap <s>           gap between bursts (default 2e-3)
  --noise <bps>       uniform background load (default 0)
  --seeds <n>         replicated runs, reported mean ± 95% CI (default 1)
  --seed <v>          base seed (default 11)
  --jobs <n>          parallel sweep workers for replicated runs (default
                      PRDRB_JOBS env, else hardware concurrency; results
                      are identical at any worker count)
  --rate, --duration and --burst-len must be > 0, --gap, --noise and
  --bursts >= 0, and a run may offer at most 2^22 packets (nodes x
  (rate + noise) x duration / packet bits)

options (application trace; overrides --pattern):
  --app <name>        pop | nas-lu | nas-mg-{s,a,b} | nas-ft-{a,b} |
                      lammps-{chain,comb} | sweep3d | smg2000
  --iterations <n>    trace time steps, 1 to 256 (default 8)
  --bytes-scale <f>   message-volume multiplier, 0 to 192 (default 1.0)
  --compute-scale <f> compute-time multiplier, 0 to 16 (default 1.0)

solution database (DESIGN.md "Indexed solution database"):
  --sdb-in <path>       warm-start predictive policies from a previously
                        exported solution database ("prdrb-sdb-v1" or the
                        legacy headerless text) before any traffic flows
  --sdb-out <path>      export the base-seed run's solution database after
                        the run; deterministic sorted text, byte-identical
                        across repeats and --jobs values
  --sdb-capacity <n>    bound the database to n solutions with LRU
                        eviction (default 0 = unbounded)

observability (DESIGN.md "Observability"):
  --trace-out <path>    write a Chrome trace_event JSON (open in Perfetto)
                        of a serial, base-seed run
  --metrics-out <path>  export the counter registry (.csv -> CSV, else JSON)
  --telemetry-out <path> per-link telemetry: exact busy time, stalls and
                        packets per link plus its retained windows (.csv ->
                        CSV, else "prdrb-telemetry-v2" JSON)
  --heatmap-out <path>  per-router heatmap (.pgm -> time x router image,
                        else topology-aware ASCII)
  --scorecard-out <path> predictive-efficacy scorecard: latency attribution,
                        metapath ledger and warm-vs-cold SDB episodes
                        ("prdrb-scorecard-v1" JSON) of a serial base-seed run
  --stream-out <path>   bounded-memory streaming telemetry: periodic
                        "prdrb-stream-v1" NDJSON snapshots (utilization
                        quantiles, congestion onsets, prediction lead times)
                        of a serial base-seed run, closed by a summary line
  --stream-interval <s> snapshot cadence in simulated seconds (default 10e-3;
                        rounded up to the run's 1 ms window grid)
  --watchdog[=<s>]      arm the stall watchdog (default window 5e-3 virtual
                        seconds): dumps ring + router snapshot to stderr if
                        no packet is delivered for a window while work is
                        pending
  --watchdog-out <path> also write the flight-recorder dump JSON there
  --manifest-out <path> run-manifest path (default prdrb_sim.manifest.json)
  --no-manifest         do not write a manifest
)";
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioSpec sc;
  sc.topology = "tree-64";
  sc.synthetic().pattern = "uniform";
  sc.synthetic().duration = 10e-3;
  sc.synthetic().bursts = 0;
  std::string policy = "pr-drb";
  std::string app;
  TraceScale scale;
  int seeds = 1;
  OutputFlags out;
  const auto wall_start = std::chrono::steady_clock::now();

  try {
    for (int i = 1; i < argc; ++i) {
      const Parsed<std::string> flag = parse_output_flag(argc, argv, i, out);
      if (!flag.ok()) {
        std::cerr << "error: " << flag.error().what() << "\n";
        return 2;
      }
      if (!flag.value().empty()) continue;
      // "--flag=value" or "--flag value", like the bench binaries.
      const std::string a(flag_name(argv[i]));
      const auto sval = [&] {
        return flag_value(argc, argv, i).value_or_throw();
      };
      // Numbers parse whole and finite ("4e8x", "nan" and, for a count,
      // "2.7" exit 2 naming the flag).
      const auto real = [&] {
        return parse_number<double>(a, sval()).value_or_throw();
      };
      const auto count = [&] {
        return parse_number<int>(a, sval()).value_or_throw();
      };
      if (a == "--help" || a == "-h") {
        usage();
        return 0;
      } else if (a == "--topology") {
        sc.topology = sval();
      } else if (a == "--policy") {
        policy = sval();
      } else if (a == "--pattern") {
        sc.synthetic().pattern = sval();
      } else if (a == "--rate") {
        sc.synthetic().rate_bps = real();
      } else if (a == "--duration") {
        sc.synthetic().duration = real();
      } else if (a == "--bursts") {
        sc.synthetic().bursts = count();
      } else if (a == "--burst-len") {
        sc.synthetic().burst_len = real();
      } else if (a == "--gap") {
        sc.synthetic().gap_len = real();
      } else if (a == "--noise") {
        sc.synthetic().noise_rate_bps = real();
      } else if (a == "--seeds") {
        seeds = count();
      } else if (a == "--jobs") {
        set_default_jobs(parse_jobs(a, sval()).value_or_throw());
      } else if (a == "--seed") {
        sc.seed = parse_number<std::uint64_t>(a, sval()).value_or_throw();
      } else if (a == "--app") {
        app = sval();
      } else if (a == "--iterations") {
        scale.iterations = count();
      } else if (a == "--bytes-scale") {
        scale.bytes_scale = real();
      } else if (a == "--compute-scale") {
        scale.compute_scale = real();
      } else if (a == "--sdb-capacity") {
        sc.prdrb.sdb_capacity =
            parse_number<std::size_t>(a, sval()).value_or_throw();
      } else {
        std::cerr << "unknown option: " << a << "\n";
        usage();
        return 2;
      }
    }

    sc.sdb_in = out.sdb_in;
    sc.sdb_out = out.sdb_out;
    if (out.manifest_out.empty()) out.manifest_out = "prdrb_sim.manifest.json";

    RunManifest manifest("prdrb_sim");
    manifest.set_seed(sc.seed);
    manifest.add_config("topology", sc.topology);
    manifest.add_config("policy", policy);
    if (!sc.sdb_in.empty()) manifest.add_config("sdb_in", sc.sdb_in);
    if (!sc.sdb_out.empty()) manifest.add_config("sdb_out", sc.sdb_out);
    if (sc.prdrb.sdb_capacity > 0) {
      manifest.add_config(
          "sdb_capacity",
          static_cast<std::int64_t>(sc.prdrb.sdb_capacity));
    }
    const auto finish = [&](double) {
      const auto elapsed = std::chrono::steady_clock::now() - wall_start;
      manifest.set_wall_seconds(
          std::chrono::duration<double>(elapsed).count());
      manifest.set_jobs(default_jobs());
      if (out.manifest) manifest.write_file(out.manifest_out);
    };

    if (!app.empty()) {
      // Switching the workload alternative discards the synthetic knobs;
      // topology/seed/sinks live on the spec and carry over.
      sc.trace().app = app;
      sc.trace().scale = scale;
      // run_scenario on a trace workload is serial: the sinks can ride the
      // measured run itself.
      const ScenarioResult r = run_observed(policy, sc, out);
      manifest.add_config("app", app);
      manifest.add_result(r);
      finish(0);
      Table t({"metric", "value"});
      t.add_row({"policy", r.policy});
      t.add_row({"application", app});
      t.add_row({"execution time (ms)", Table::num(r.exec_time * 1e3, 5)});
      t.add_row({"global avg latency (us)",
                 Table::num(r.global_latency * 1e6, 5)});
      t.add_row({"contention map peak (us)", Table::num(r.map_peak * 1e6, 5)});
      t.add_row({"packets delivered", std::to_string(r.packets)});
      t.add_row({"path expansions", std::to_string(r.expansions)});
      t.add_row({"solution installs", std::to_string(r.installs)});
      t.add_row({"patterns saved", std::to_string(r.patterns_saved)});
      t.print(std::cout);
      return r.exec_time >= 0 ? 0 : 1;
    }

    const auto runs = run_synthetic_replicated(policy, sc, seeds);
    manifest.add_config("pattern", sc.synthetic().pattern);
    manifest.add_config("rate_bps", sc.synthetic().rate_bps);
    manifest.add_config("seeds", static_cast<std::int64_t>(seeds));
    for (const ScenarioResult& r : runs) manifest.add_result(r);
    // The replicated runs go through the parallel executor, so the
    // instrumented run is a separate serial probe at the base seed — its
    // trace bytes are independent of --jobs.
    if (out.observes()) {
      ScenarioSpec probe = sc;
      // The replicated base-seed run already exported the database (only
      // the base seed writes it — workers must not race on the file).
      probe.sdb_out.clear();
      run_observed(policy, probe, out);
    }
    finish(0);
    const auto lat = replicate_metric(
        runs, [](const ScenarioResult& r) { return r.global_latency; });
    const auto peak = replicate_metric(
        runs, [](const ScenarioResult& r) { return r.map_peak; });
    Table t({"metric", "value"});
    t.add_row({"policy", runs.front().policy});
    t.add_row({"pattern", sc.synthetic().pattern});
    t.add_row({"seeds", std::to_string(seeds)});
    t.add_row({"global avg latency (us)",
               Table::num(lat.mean * 1e6, 5) + " ± " +
                   Table::num(lat.ci95() * 1e6, 3)});
    t.add_row({"contention map peak (us)",
               Table::num(peak.mean * 1e6, 5) + " ± " +
                   Table::num(peak.ci95() * 1e6, 3)});
    t.add_row({"packets delivered", std::to_string(runs.front().packets)});
    t.add_row({"delivery ratio",
               Table::num(runs.front().delivery_ratio, 6)});
    t.add_row({"path expansions", std::to_string(runs.front().expansions)});
    t.add_row({"solution installs", std::to_string(runs.front().installs)});
    t.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
