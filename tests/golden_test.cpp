// Golden pins, recorded in tests/golden/:
//
//   * GOLDEN.txt — kernel pins: a fixed set of small scenarios whose event
//     count, delivered-packet count and full ScenarioResult digest are
//     recorded. Any change to the event kernel, the packet pipeline or a
//     policy that shifts simulated behaviour makes a row drift. The digest
//     is FNV-1a over the bit patterns of every ScenarioResult field, series
//     included, so a one-ulp change in any latency shows up.
//   * SINKS.txt — sink-export pins: a few scenarios run with every
//     observability sink attached (tracer, counters, a flight recorder big
//     enough to keep every event, scorecard, stream, watchdog), pinned by
//     their event count and one FNV-1a digest per exported document. Any
//     change to what a hook forwards, or to where it fires, makes a row
//     drift. Each attached run must also equal its bare run, event count
//     included: sinks observe the run, they never add to it.
//
// Either failure lists every drifted row. Re-record (only for a deliberate,
// attributed behaviour change):
//   PRDRB_GOLDEN_RECORD=1 ./build/tests/golden_test
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/scorecard.hpp"
#include "obs/stream.hpp"
#include "obs/tracer.hpp"

namespace prdrb {
namespace {

class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) {
    unsigned char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(le, sizeof le);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void pairs(const std::vector<std::pair<double, double>>& v) {
    u64(v.size());
    for (const auto& [a, b] : v) {
      f64(a);
      f64(b);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const ScenarioResult& r) {
  Digest d;
  d.str(r.policy);
  for (const double v :
       {r.global_latency, r.mean_latency, r.peak_bin_latency, r.map_peak,
        r.map_mean, r.exec_time, r.delivery_ratio, r.p50_latency,
        r.p95_latency, r.p99_latency}) {
    d.f64(v);
  }
  for (const std::uint64_t v :
       {r.packets, r.events, r.expansions, r.installs, r.trend_triggers,
        static_cast<std::uint64_t>(r.patterns_saved),
        static_cast<std::uint64_t>(r.patterns_reused), r.max_reuse}) {
    d.u64(v);
  }
  d.pairs(r.series);
  d.u64(r.router_map.size());
  for (const double v : r.router_map) d.f64(v);
  d.u64(r.router_series.size());
  for (const auto& [router, series] : r.router_series) {
    d.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(router)));
    d.pairs(series);
  }
  return d.value();
}

struct GoldenCase {
  std::string name;
  std::string policy;
  ScenarioSpec spec;
};

/// The thesis hot spot on mesh-8x8: one 1 ms burst at 1 Gb/s, 2 ms.
ScenarioSpec hotspot_spec() {
  ScenarioSpec hot;
  hot.topology = "mesh-8x8";
  hot.synthetic().pattern = "hotspot-cross";
  hot.synthetic().rate_bps = 1000e6;
  hot.synthetic().duration = 2e-3;
  hot.synthetic().bursts = 1;
  hot.synthetic().burst_len = 1e-3;
  hot.seed = 11;
  return hot;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;

  // Bursty uniform traffic on a small mesh; pr-fr-drb arms and cancels one
  // FR-DRB watchdog per in-flight message, drb exercises plain expansion.
  ScenarioSpec bursty;
  bursty.topology = "mesh-4x4";
  bursty.synthetic().pattern = "uniform";
  bursty.synthetic().rate_bps = 600e6;
  bursty.synthetic().bursts = 2;
  bursty.synthetic().burst_len = 0.5e-3;
  bursty.synthetic().gap_len = 0.5e-3;
  bursty.synthetic().duration = 2e-3;
  bursty.seed = 11;
  bursty.bin_width = 0.5e-3;
  cases.push_back({"mesh4x4-bursty-uniform", "pr-fr-drb", bursty});
  cases.push_back({"mesh4x4-bursty-uniform", "drb", bursty});

  // Closed-loop trace replay on a fat tree (sim_exec_ms path).
  ScenarioSpec sweep;
  sweep.topology = "tree-16";
  sweep.trace().app = "sweep3d";
  sweep.trace().scale.iterations = 2;
  cases.push_back({"tree16-sweep3d", "pr-drb", sweep});

  // UGAL-L derouting on the adversarial group shift of the canonical
  // dragonfly.
  ScenarioSpec df;
  df.topology = "dragonfly-4:9:2:4";
  df.synthetic().pattern = "adversarial-group";
  df.synthetic().rate_bps = 800e6;
  df.synthetic().duration = 0.5e-3;
  df.synthetic().bursts = 0;
  cases.push_back({"dragonfly-adversarial", "ugal-l", df});

  // Router-based predictive notification on the thesis hot spot.
  cases.push_back({"mesh8x8-hotspot-cross", "pr-drb@router", hotspot_spec()});

  // The k-ary n-cube family (§2.1.1): a 2D torus, a 3D mesh and a
  // hypercube, each loaded until DRB opens alternative paths, so the MSP
  // ring scan is pinned on every grid shape.
  struct Grid {
    const char* name;
    const char* topology;
    double rate_bps;
  };
  for (const Grid& g : {Grid{"torus8x8-uniform", "torus-8x8", 1000e6},
                        Grid{"mesh4x4x4-uniform", "mesh-4x4x4", 1500e6},
                        Grid{"cube4-uniform", "cube-4", 2000e6}}) {
    ScenarioSpec grid;
    grid.topology = g.topology;
    grid.synthetic().pattern = "uniform";
    grid.synthetic().rate_bps = g.rate_bps;
    grid.synthetic().duration = 1e-3;
    grid.synthetic().bursts = 0;
    grid.seed = 11;
    cases.push_back({g.name, "pr-drb", grid});
  }

  // The scale row: perfbench mesh32's short spec, 1024 routers past
  // saturation, where CFD detects on deep queues and every MSP ring lies
  // in a large grid.
  ScenarioSpec mesh32;
  mesh32.topology = "mesh-32x32";
  mesh32.synthetic().pattern = "uniform";
  mesh32.synthetic().rate_bps = 400e6;
  mesh32.synthetic().duration = 0.05e-3;
  mesh32.synthetic().bursts = 0;
  mesh32.seed = 11;
  mesh32.bin_width = 10e-6;
  cases.push_back({"mesh32x32-uniform", "pr-drb", mesh32});
  return cases;
}

struct Pin {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t digest = 0;
  bool operator==(const Pin&) const = default;
};

std::string row_key(const GoldenCase& c) { return c.name + " " + c.policy; }

std::string format_pin(const Pin& p) {
  std::ostringstream os;
  os << p.events << " " << p.packets << " 0x" << std::hex << p.digest;
  return os.str();
}

/// Parse "name policy events packets 0xdigest" rows; '#' starts a comment.
std::map<std::string, Pin> read_table(const std::string& path) {
  std::map<std::string, Pin> table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string name, policy, hex;
    Pin pin;
    if (is >> name >> policy >> pin.events >> pin.packets >> hex) {
      pin.digest = std::stoull(hex, nullptr, 16);
      table[name + " " + policy] = pin;
    }
  }
  return table;
}

bool recording() {
  const char* env = std::getenv("PRDRB_GOLDEN_RECORD");
  return env && *env && std::string(env) != "0";
}

TEST(GoldenKernel, ScenarioPinsMatchRecordedTable) {
  const std::vector<GoldenCase> cases = golden_cases();
  std::vector<std::pair<std::string, Pin>> measured;
  for (const GoldenCase& c : cases) {
    const ScenarioResult r = run_scenario(c.policy, c.spec);
    measured.emplace_back(row_key(c), Pin{r.events, r.packets, digest(r)});
  }

  if (recording()) {
    std::ofstream out(PRDRB_GOLDEN_FILE);
    out << "# Golden kernel pins (tests/golden_test.cpp): one scenario per "
           "line,\n# name policy events packets result-digest. Re-record "
           "with PRDRB_GOLDEN_RECORD=1\n# only for an attributed behaviour "
           "change.\n";
    for (const auto& [key, pin] : measured) {
      out << key << " " << format_pin(pin) << "\n";
    }
    ASSERT_TRUE(out.good()) << "cannot write " << PRDRB_GOLDEN_FILE;
    GTEST_SKIP() << "re-recorded " << PRDRB_GOLDEN_FILE;
  }

  const std::map<std::string, Pin> table = read_table(PRDRB_GOLDEN_FILE);
  ASSERT_FALSE(table.empty()) << "no pins in " << PRDRB_GOLDEN_FILE;
  std::ostringstream drift;
  for (const auto& [key, pin] : measured) {
    const auto it = table.find(key);
    if (it == table.end()) {
      drift << "  " << key << ": no recorded pin\n";
    } else if (!(it->second == pin)) {
      drift << "  " << key << ": recorded " << format_pin(it->second)
            << ", now " << format_pin(pin) << "\n";
    }
  }
  EXPECT_EQ(table.size(), measured.size()) << "table rows without a case";
  EXPECT_TRUE(drift.str().empty()) << "drifted rows:\n" << drift.str();
}

// ---------------------------------------------------------------------------
// Sink-export pins

struct SinkCase {
  std::string name;
  std::string policy;
  ScenarioSpec spec;
  bool watchdog = false;  // arm the stall watchdog and pin its dump
};

std::vector<SinkCase> sink_cases() {
  std::vector<SinkCase> cases;
  // Router-based notification: every tracer event kind fires.
  cases.push_back({"mesh8x8-hotspot-cross", "pr-drb@router", hotspot_spec()});

  // 128 KB buffers: credit stalls on the hot spot, still delivering all.
  ScenarioSpec stalls = hotspot_spec();
  stalls.net.buffer_bytes = 128 * 1024;
  cases.push_back({"mesh8x8-hotspot-cross-128k", "pr-drb", stalls});

  // Short uniform bursts on a fat tree: High-zone entries before any
  // contending flow is known, so the SDB probes with empty signatures.
  ScenarioSpec tree;
  tree.topology = "tree-16";
  tree.synthetic().pattern = "uniform";
  tree.synthetic().rate_bps = 1200e6;
  tree.synthetic().bursts = 2;
  tree.synthetic().burst_len = 0.5e-3;
  tree.synthetic().gap_len = 0.5e-3;
  tree.synthetic().duration = 2e-3;
  cases.push_back({"tree16-bursty-uniform", "pr-fr-drb", tree});

  // 32 KB buffers deadlock the hot spot: the watchdog dump holds inject
  // stalls, credit stalls and control-plane events.
  ScenarioSpec wedged = hotspot_spec();
  wedged.net.buffer_bytes = 32 * 1024;
  cases.push_back(
      {"mesh8x8-hotspot-cross-32k-watchdog", "pr-drb", wedged, true});
  return cases;
}

std::uint64_t fnv(const std::string& bytes) {
  Digest d;
  d.bytes(bytes.data(), bytes.size());
  return d.value();
}

std::uint64_t digest_ring(const obs::FlightRecorder& rec) {
  Digest d;
  for (const obs::FlightRecorder::ControlEvent& e : rec.snapshot()) {
    d.f64(e.t);
    d.u64(static_cast<std::uint64_t>(e.kind));
    for (const std::int32_t v : {e.a, e.b, e.c}) {
      d.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }
    d.f64(e.v);
  }
  return d.value();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

using SinkPins = std::vector<std::pair<std::string, std::uint64_t>>;

/// Run `c` with every sink attached; the event count, then one digest per
/// export.
SinkPins run_with_sinks(const SinkCase& c) {
  ScenarioSpec sc = c.spec;
  obs::Tracer tracer;
  obs::CounterRegistry counters(sc.bin_width);
  obs::FlightRecorder recorder(1 << 16);
  obs::Scorecard scorecard;
  obs::StreamTelemetry stream;
  std::ostringstream watchdog_text;
  std::string dump;
  sc.sinks.tracer = &tracer;
  sc.sinks.counters = &counters;
  sc.sinks.recorder = &recorder;
  sc.sinks.scorecard = &scorecard;
  sc.sinks.stream = &stream;
  if (c.watchdog) {
    sc.sinks.watchdog_window = 5e-3;
    sc.sinks.watchdog_stream = &watchdog_text;
    sc.sinks.watchdog_dump = &dump;
  }
  const std::string sdb_path =
      ::testing::TempDir() + "golden_sinks_" + c.name + ".sdb";
  sc.sdb_out = sdb_path;
  const ScenarioResult r = run_scenario(c.policy, sc);
  EXPECT_EQ(run_scenario(c.policy, c.spec), r)
      << c.name << ": the attached run differs from the bare run";
  // The ring must hold the whole run, or events could fall off unnoticed.
  EXPECT_LE(recorder.recorded(), recorder.capacity()) << c.name;
  EXPECT_EQ(dump.empty(), !c.watchdog) << c.name;

  SinkPins pins;
  pins.emplace_back("events", r.events);
  pins.emplace_back("trace", fnv(tracer.to_json()));
  pins.emplace_back("counters", fnv(counters.to_json()));
  pins.emplace_back("recorder", digest_ring(recorder));
  pins.emplace_back("scorecard", fnv(scorecard.to_json()));
  pins.emplace_back("stream", fnv(stream.ndjson()));
  pins.emplace_back("telemetry", fnv(stream.telemetry_json()));
  pins.emplace_back("heatmap", fnv(stream.heatmap_pgm()));
  pins.emplace_back("sdb", fnv(read_file(sdb_path)));
  if (c.watchdog) pins.emplace_back("dump", fnv(dump));
  std::remove(sdb_path.c_str());
  return pins;
}

std::string format_value(const std::string& key, std::uint64_t v) {
  std::ostringstream os;
  if (key == "events") {
    os << v;
  } else {
    os << "0x" << std::hex << v;
  }
  return os.str();
}

/// Parse "name policy export value" rows (value decimal or 0x-hex); '#'
/// starts a comment.
std::map<std::string, std::uint64_t> read_sink_table(const std::string& path) {
  std::map<std::string, std::uint64_t> table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string name, policy, key, value;
    if (is >> name >> policy >> key >> value) {
      table[name + " " + policy + " " + key] = std::stoull(value, nullptr, 0);
    }
  }
  return table;
}

TEST(GoldenSinks, ExportPinsMatchRecordedTable) {
  std::vector<std::pair<std::string, std::uint64_t>> measured;
  for (const SinkCase& c : sink_cases()) {
    for (const auto& [key, value] : run_with_sinks(c)) {
      measured.emplace_back(c.name + " " + c.policy + " " + key, value);
    }
  }

  if (recording()) {
    std::ofstream out(PRDRB_GOLDEN_SINKS_FILE);
    out << "# Golden sink-export pins (tests/golden_test.cpp): name policy "
           "export value,\n# the event count, then one FNV-1a digest per "
           "exported document. Re-record\n# with PRDRB_GOLDEN_RECORD=1 only "
           "for an attributed behaviour change.\n";
    for (const auto& [key, value] : measured) {
      const std::string field = key.substr(key.rfind(' ') + 1);
      out << key << " " << format_value(field, value) << "\n";
    }
    ASSERT_TRUE(out.good()) << "cannot write " << PRDRB_GOLDEN_SINKS_FILE;
    GTEST_SKIP() << "re-recorded " << PRDRB_GOLDEN_SINKS_FILE;
  }

  const auto table = read_sink_table(PRDRB_GOLDEN_SINKS_FILE);
  ASSERT_FALSE(table.empty()) << "no pins in " << PRDRB_GOLDEN_SINKS_FILE;
  std::ostringstream drift;
  for (const auto& [key, value] : measured) {
    const std::string field = key.substr(key.rfind(' ') + 1);
    const auto it = table.find(key);
    if (it == table.end()) {
      drift << "  " << key << ": no recorded pin\n";
    } else if (it->second != value) {
      drift << "  " << key << ": recorded " << format_value(field, it->second)
            << ", now " << format_value(field, value) << "\n";
    }
  }
  EXPECT_EQ(table.size(), measured.size()) << "table rows without a case";
  EXPECT_TRUE(drift.str().empty()) << "drifted exports:\n" << drift.str();
}

}  // namespace
}  // namespace prdrb
