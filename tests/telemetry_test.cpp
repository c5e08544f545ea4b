// Per-link telemetry exports + flight recorder + stall watchdog tests
// (DESIGN.md "Observability"):
//   - obs/stream as the telemetry sink behind --telemetry-out and
//     --heatmap-out: heatmap rows split busy time at window boundaries,
//     hostile timestamps cannot grow its state, deterministic
//     prdrb-telemetry-v2 JSON/CSV and PGM/ASCII heatmap exports, router
//     queue depth on the counter registry's cadence
//   - obs/flight_recorder: ring semantics, control-plane capture,
//     allocation-free recording
//   - StallWatchdog: fires exactly once on a starved run (with a
//     byte-stable dump), stays silent on a healthy one
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "net/mesh2d.hpp"
#include "net/packet.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/stream.hpp"
#include "routing/oblivious.hpp"
#include "test_util.hpp"

namespace prdrb {
namespace {

using obs::FlightRecorder;
using obs::StallWatchdog;
using obs::StreamConfig;
using obs::StreamTelemetry;
using test::Harness;

Packet data_packet(NodeId src, NodeId dst) {
  Packet p;
  p.type = PacketType::kData;
  p.source = src;
  p.destination = dst;
  p.size_bytes = 1024;
  return p;
}

/// Pixel rows of a P2 image, after its magic, comment, size and maxval.
std::vector<std::vector<int>> pgm_rows(const std::string& pgm, int& cols,
                                       int& rows) {
  std::istringstream in(pgm);
  std::string magic, comment;
  std::getline(in, magic);
  std::getline(in, comment);
  int maxval = 0;
  in >> cols >> rows >> maxval;
  std::vector<std::vector<int>> px(static_cast<std::size_t>(rows),
                                   std::vector<int>(cols));
  for (auto& row : px) {
    for (int& v : row) in >> v;
  }
  return px;
}

// --- heatmap rows and hostile input ---

TEST(Telemetry, TransmitBusyTimeIsSplitAcrossBins) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 2, 2);
  StreamConfig cfg;
  cfg.window_s = 1.0;
  StreamTelemetry st(cfg);
  st.bind(*h.net);
  ASSERT_TRUE(st.bound());
  EXPECT_EQ(st.num_routers(), 4u);
  ASSERT_GT(st.num_links(), 0u);

  // 1.0 s of serialization starting mid-window: half lands in the window
  // the roll closes, half in the window still open at finalize; totals are
  // exact.
  st.on_transmit(0, 0, data_packet(0, 1), /*start=*/0.5, /*ser=*/1.0);
  EXPECT_DOUBLE_EQ(st.link_busy_seconds(0, 0), 1.0);
  st.roll(1.0);
  st.on_credit_stall(0, 0, 1.5);
  EXPECT_EQ(st.link_stalls(0, 0), 1u);
  st.finalize(1.5);
  EXPECT_FALSE(st.bound());

  // One heatmap row per window; router 0's pixel is 0.5 busy seconds over
  // its `ports` 1 s links, the other routers stay dark.
  int cols = 0, rows = 0;
  const auto px = pgm_rows(st.heatmap_pgm(), cols, rows);
  ASSERT_EQ(cols, 4);
  ASSERT_EQ(rows, 2);
  const double ports = static_cast<double>(h.net->router(0).ports.size());
  const int expect = static_cast<int>(std::lround(255.0 * 0.5 / ports));
  EXPECT_GT(expect, 0);
  for (int row = 0; row < rows; ++row) {
    EXPECT_EQ(px[row][0], expect) << "row " << row;
    for (int r = 1; r < cols; ++r) EXPECT_EQ(px[row][r], 0);
  }
}

TEST(Telemetry, OutOfDomainTimestampsAreClampedNotTrusted) {
  // The stream addresses windows by its own roll count, never by a
  // timestamp: negative, NaN and far-future times can neither resize its
  // state nor lose busy time.
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 2, 2);
  StreamTelemetry st;
  st.bind(*h.net);
  const std::size_t bytes = st.memory_bytes();

  st.on_transmit(0, 0, data_packet(0, 1), -5.0, 0.5e-3);
  st.on_credit_stall(0, 0, std::numeric_limits<double>::quiet_NaN());
  st.on_transmit(0, 1, data_packet(0, 1), 1e18, 1e-3);
  st.roll(1e-3);
  st.roll(2e-3);
  EXPECT_EQ(st.memory_bytes(), bytes);
  EXPECT_DOUBLE_EQ(st.link_busy_seconds(0, 0), 0.5e-3);
  EXPECT_DOUBLE_EQ(st.link_busy_seconds(0, 1), 1e-3);
  EXPECT_EQ(st.link_stalls(0, 0), 1u);
  // The far-future interval is carried into the next window, not into a
  // window 10^21 slots ahead.
  EXPECT_NEAR(st.window_at(0, 1, 1).busy, 1e-3, 1e-15);
}

TEST(Telemetry, SamplingRecordsRouterQueueDepth) {
  // Per-router queue depth is the registry gauge net.router.<r>.queue_bytes
  // (exported by --metrics-out), sampled on the registry cadence.
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 2, 2);
  obs::CounterRegistry reg(1e-3);
  h.net->register_gauges(reg);
  reg.sample(0.5e-3);
  const TimeSeries* s = reg.series("net.router.0.queue_bytes");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->bin_count(0), 1u);  // idle network: a zero sample, recorded
  EXPECT_DOUBLE_EQ(s->bin_mean(0), 0.0);
  EXPECT_EQ(reg.series("net.router.99.queue_bytes"), nullptr);
}

// --- exports ---

/// Shared scenario: hot-spot mesh load that exercises stalls and the
/// control plane.
ScenarioSpec hotspot_scenario() {
  ScenarioSpec sc;
  sc.topology = "mesh-8x8";
  sc.synthetic().pattern = "hotspot-cross";
  sc.synthetic().rate_bps = 1200e6;
  sc.synthetic().duration = 3e-3;
  sc.synthetic().bursts = 1;
  sc.synthetic().burst_len = 2e-3;
  sc.seed = 11;
  return sc;
}

TEST(Telemetry, ScenarioExportsAreValidAndByteIdenticalAcrossRuns) {
  const auto probe = [] {
    ScenarioSpec sc = hotspot_scenario();
    StreamTelemetry st;
    sc.sinks.stream = &st;
    run_scenario("pr-drb", sc);
    EXPECT_FALSE(st.bound()) << "run must finalize the stream on exit";
    return std::array<std::string, 4>{
        st.telemetry_json(), st.telemetry_csv(), st.heatmap_pgm(),
        st.heatmap_ascii(*make_topology("mesh-8x8").value_or_throw())};
  };
  const auto a = probe();
  const auto b = probe();
  EXPECT_EQ(a, b);  // byte-identical across identical seeded runs

  const auto doc = obs::json_parse(a[0]);
  ASSERT_TRUE(doc.has_value()) << a[0].substr(0, 400);
  EXPECT_EQ(doc->string_at("schema"), "prdrb-telemetry-v2");
  EXPECT_EQ(doc->number_at("link_class.local.links"), 224.0);
  const obs::JsonValue* layout = doc->find("layout");
  const obs::JsonValue* links = doc->find("links");
  ASSERT_TRUE(layout && layout->is_array() && !layout->items().empty());
  ASSERT_TRUE(links && links->is_array() && !links->items().empty());
  for (const obs::JsonValue& link : links->items()) {
    const obs::JsonValue* windows = link.find("windows");
    ASSERT_TRUE(windows && windows->is_array());
    EXPECT_EQ(windows->items().size(), layout->items().size())
        << "every link's windows follow the shared layout";
    EXPECT_GT(link.number_at("busy_s") + link.number_at("stalls"), 0.0);
  }

  EXPECT_EQ(a[1].rfind(
                "kind,router,port,class,start_s,span_s,busy_s,stalls,"
                "packets\n",
                0),
            0u);
  EXPECT_NE(a[1].find("\nlink,"), std::string::npos);
  EXPECT_NE(a[1].find("\nwindow,"), std::string::npos);
  EXPECT_NE(a[1].find("\nclass,,,local,"), std::string::npos);

  EXPECT_EQ(a[2].rfind("P2\n", 0), 0u) << "PGM magic";
  EXPECT_NE(a[3].find("mesh-8x8"), std::string::npos);
}

TEST(Telemetry, WriteFilePicksFormatByExtension) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 2, 2);
  StreamTelemetry st;
  st.bind(*h.net);
  st.on_transmit(0, 0, data_packet(0, 1), 0.1e-3, 0.2e-3);
  st.roll(1e-3);
  st.finalize(1.5e-3);

  const std::string csv_path = ::testing::TempDir() + "telemetry.csv";
  const std::string json_path = ::testing::TempDir() + "telemetry.json";
  const std::string pgm_path = ::testing::TempDir() + "telemetry.pgm";
  const std::string txt_path = ::testing::TempDir() + "telemetry.txt";
  ASSERT_TRUE(st.write_telemetry_file(csv_path));
  ASSERT_TRUE(st.write_telemetry_file(json_path));
  ASSERT_TRUE(st.write_heatmap_file(pgm_path, *h.topo));
  ASSERT_TRUE(st.write_heatmap_file(txt_path, *h.topo));

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    return body.str();
  };
  EXPECT_EQ(slurp(csv_path), st.telemetry_csv());
  EXPECT_EQ(slurp(json_path), st.telemetry_json());
  EXPECT_TRUE(obs::json_valid(slurp(json_path)));
  EXPECT_EQ(slurp(pgm_path), st.heatmap_pgm());
  EXPECT_EQ(slurp(txt_path), st.heatmap_ascii(*h.topo));
  for (const std::string* p : {&csv_path, &json_path, &pgm_path, &txt_path}) {
    std::remove(p->c_str());
  }
}

/// The sweep executor's worker count must not leak into probe output: the
/// serial probe bytes are a function of scenario + seed only.
TEST(Telemetry, ProbeBytesAreIndependentOfDefaultJobs) {
  const auto probe = [] {
    ScenarioSpec sc = hotspot_scenario();
    StreamTelemetry st;
    sc.sinks.stream = &st;
    run_scenario("pr-drb", sc);
    return st.telemetry_json() + st.heatmap_pgm();
  };
  const int saved = default_jobs();
  set_default_jobs(1);
  const std::string at_one = probe();
  set_default_jobs(8);
  const std::string at_eight = probe();
  set_default_jobs(saved);
  EXPECT_EQ(at_one, at_eight);
}

// --- FlightRecorder ---

TEST(FlightRecorderTest, RingKeepsTheNewestEventsOldestFirst) {
  FlightRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  for (int i = 0; i < 7; ++i) {
    rec.record(FlightRecorder::EventKind::kInjectStall,
               static_cast<SimTime>(i), i);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 7u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Events 3..6 survive, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].a, i + 3);
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].t,
                     static_cast<double>(i + 3));
  }
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(FlightRecorderTest, RecordingIsAllocationFree) {
  FlightRecorder rec(256);
  test::AllocationScope scope;
  for (int i = 0; i < 10000; ++i) {
    rec.record(FlightRecorder::EventKind::kCongestion, i * 1e-6, 1, 2, 3,
               4.5);
  }
  EXPECT_EQ(scope.count(), 0u) << "ring recording must not allocate";
  EXPECT_EQ(rec.size(), 256u);
}

TEST(FlightRecorderTest, ScenarioRunCapturesControlPlaneEvents) {
  ScenarioSpec sc =hotspot_scenario();
  FlightRecorder rec(512);
  sc.sinks.recorder = &rec;
  run_scenario("pr-drb", sc);
  EXPECT_GT(rec.recorded(), 0u);
  bool saw_congestion = false, saw_open = false;
  for (const auto& e : rec.snapshot()) {
    saw_congestion |= e.kind == FlightRecorder::EventKind::kCongestion;
    saw_open |= e.kind == FlightRecorder::EventKind::kMetapathOpen;
  }
  EXPECT_TRUE(saw_congestion);
  EXPECT_TRUE(saw_open);
  EXPECT_STREQ(FlightRecorder::kind_name(
                   FlightRecorder::EventKind::kMetapathOpen),
               "mp-open");
}

// --- StallWatchdog ---

/// A scenario that wedges by construction: the router buffer pool is
/// smaller than one packet, so no NIC can ever inject and every queued
/// message is undelivered work.
ScenarioSpec starved_scenario() {
  ScenarioSpec sc;
  sc.topology = "mesh-4x4";
  sc.synthetic().pattern = "uniform";
  sc.synthetic().rate_bps = 400e6;
  sc.synthetic().duration = 2e-3;
  sc.synthetic().bursts = 0;
  sc.seed = 11;
  sc.net.buffer_bytes = 512;  // < packet_bytes: injection can never proceed
  return sc;
}

TEST(Watchdog, StarvedRunDumpsExactlyOnce) {
  ScenarioSpec sc =starved_scenario();
  FlightRecorder rec(128);
  std::ostringstream err;
  std::string dump;
  sc.sinks.recorder = &rec;
  sc.sinks.watchdog_window = 0.5e-3;
  sc.sinks.watchdog_stream = &err;
  sc.sinks.watchdog_dump = &dump;
  const ScenarioResult r = run_scenario("deterministic", sc);
  EXPECT_EQ(r.packets, 0u);

  ASSERT_FALSE(dump.empty());
  EXPECT_TRUE(obs::json_valid(dump)) << dump.substr(0, 400);
  EXPECT_NE(dump.find("prdrb-flightdump-v1"), std::string::npos);
  EXPECT_NE(dump.find("\"event_queue\""), std::string::npos);
  EXPECT_NE(dump.find("\"routers\""), std::string::npos);
  EXPECT_NE(dump.find("\"nics\""), std::string::npos);
  EXPECT_NE(dump.find("inject-stall"), std::string::npos);
  // Exactly one dump on the stream, however long the starvation lasted.
  const std::string text = err.str();
  const auto first = text.find("[prdrb watchdog]");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("[prdrb watchdog]", first + 1), std::string::npos);
}

TEST(Watchdog, StarvedDumpIsByteIdenticalAcrossRuns) {
  const auto probe = [] {
    ScenarioSpec sc =starved_scenario();
    std::string dump;
    sc.sinks.watchdog_window = 0.5e-3;
    sc.sinks.watchdog_stream = nullptr;  // default stderr
    std::ostringstream sink;
    sc.sinks.watchdog_stream = &sink;
    sc.sinks.watchdog_dump = &dump;
    run_scenario("deterministic", sc);
    return dump;
  };
  const std::string a = probe();
  const std::string b = probe();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Watchdog, HealthyRunStaysSilent) {
  ScenarioSpec sc =hotspot_scenario();
  std::ostringstream err;
  std::string dump;
  sc.sinks.watchdog_window = 1e-3;
  sc.sinks.watchdog_stream = &err;
  sc.sinks.watchdog_dump = &dump;
  const ScenarioResult r = run_scenario("pr-drb", sc);
  EXPECT_GT(r.packets, 0u);
  EXPECT_TRUE(dump.empty()) << dump.substr(0, 200);
  EXPECT_TRUE(err.str().empty()) << err.str();
}

TEST(Watchdog, WriteDumpFileOnlyAfterFiring) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 2, 2);
  StallWatchdog wd(*h.net, h.sim, nullptr, 1e-3);
  EXPECT_FALSE(wd.fired());
  EXPECT_TRUE(wd.dump_json().empty());
  EXPECT_FALSE(wd.write_dump_file(::testing::TempDir() + "no_dump.json"));
  // An idle network holds no pending work: finalize must not fire.
  wd.finalize();
  EXPECT_FALSE(wd.fired());
}

// --- zero-cost-when-disabled ---

TEST(Telemetry, DetachedHooksStayAllocationFreeInSteadyState) {
  // Same steady-state contract as Allocations.NetworkSteadyStateHops...:
  // with no stream or recorder bound, their hook sites are single
  // not-taken branches and must not add allocations.
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 4, 4);
  const int kMessages = 400;
  auto run_pass = [&] {
    for (int i = 0; i < kMessages; ++i) {
      const NodeId src = static_cast<NodeId>(i % 16);
      const NodeId dst = static_cast<NodeId>((i * 7 + 5) % 16);
      h.net->send_message(src, dst, 1024);
    }
    h.sim.run();
  };
  run_pass();  // warm-up

  test::AllocationScope scope;
  run_pass();
  EXPECT_LT(scope.count(), static_cast<std::uint64_t>(4 * kMessages));
}

TEST(Telemetry, BoundTransmitPathIsAllocationFreeOnceBinsAreWarm) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 2, 2);
  StreamTelemetry st;
  st.bind(*h.net);
  const Packet p = data_packet(0, 1);
  // Warm the link's recent-flow entry for this flow.
  st.on_transmit(0, 0, p, 0.0, 1e-4);
  test::AllocationScope scope;
  for (int i = 0; i < 10000; ++i) {
    st.on_transmit(0, 0, p, (i % 5) * 1e-3, 0.5e-3);
    st.on_credit_stall(0, 0, (i % 5) * 1e-3);
  }
  EXPECT_EQ(scope.count(), 0u) << "bound transmit/stall hooks allocated";
}

}  // namespace
}  // namespace prdrb
