// Streaming telemetry tests (obs/stream, DESIGN.md "Streaming telemetry"):
//   - window splitting: serialization intervals crossing the window
//     boundary carry over exactly (multi-window spans included)
//   - differential: the bounded windowed rollup reproduces a
//     full-resolution TimeSeries' per-bin sums/counts on short runs, and
//     conserves exact totals through cascades into the ancient fold
//   - lead-time matcher: open before onset -> positive lead, onset before
//     open -> negative, no onset -> no samples, ACKs match their data
//     flow's opens
//   - scenario integration: attached synthetic and trace runs equal bare
//     runs, event counts included, NDJSON is byte-identical across repeats
//     and every line parses, per-link totals and the telemetry export
//     equal the network's own per-port counters, and the hotspot fixture
//     yields a positive median prediction lead
//   - bounded memory: memory_bytes() is flat over sim time while the
//     full-resolution series grows; hooks + roll are allocation-free in
//     steady state (operator-new interposer)
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "metrics/time_series.hpp"
#include "net/packet.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/probe.hpp"
#include "obs/stream.hpp"
#include "routing/oblivious.hpp"
#include "test_util.hpp"

namespace prdrb {
namespace {

using obs::StreamConfig;
using obs::StreamTelemetry;
using Class = StreamTelemetry::TrafficClass;
using test::Harness;

Packet data_packet(NodeId src, NodeId dst) {
  Packet p;
  p.type = PacketType::kData;
  p.source = src;
  p.destination = dst;
  p.size_bytes = 1024;
  return p;
}

/// 2x2 mesh shape: enough links for the rollup/lead unit tests without
/// paying for a real workload.
Harness small_harness() {
  return Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 2, 2);
}

// ---------------------------------------------------------------------------
// Window splitting and carry

TEST(StreamRollup, SerializationSplitsAtWindowBoundaryWithCarry) {
  auto h = small_harness();
  StreamConfig cfg;
  cfg.window_s = 1e-3;
  StreamTelemetry st(cfg);
  st.bind(*h.net);
  ASSERT_GT(st.num_links(), 0u);

  // 0.3 ms of serialization starting 0.1 ms before the boundary: 0.1 ms in
  // window 0, 0.2 ms carried into window 1.
  st.on_transmit(0, 0, data_packet(0, 1), 0.9e-3, 0.3e-3);
  st.roll(1e-3);
  st.roll(2e-3);
  const auto layout = st.window_layout();
  ASSERT_EQ(layout.size(), 2u);
  EXPECT_NEAR(st.window_at(0, 0, 0).busy, 0.1e-3, 1e-15);
  EXPECT_NEAR(st.window_at(0, 0, 1).busy, 0.2e-3, 1e-15);
  // The packet is counted once, in its starting window.
  EXPECT_EQ(st.window_at(0, 0, 0).packets, 1u);
  EXPECT_EQ(st.window_at(0, 0, 1).packets, 0u);
  EXPECT_DOUBLE_EQ(st.link_busy_seconds(0, 0), 0.3e-3);
  EXPECT_EQ(st.link_packets(0, 0), 1u);
}

TEST(StreamRollup, CarrySpansMultipleWindows) {
  auto h = small_harness();
  StreamConfig cfg;
  cfg.window_s = 1e-3;
  StreamTelemetry st(cfg);
  st.bind(*h.net);

  // 2.3 ms starting mid-window: 0.5 ms in window 0, a full window 1, then
  // 0.8 ms in window 2 — the carry drains one window's worth per roll.
  st.on_transmit(0, 0, data_packet(0, 1), 0.5e-3, 2.3e-3);
  st.roll(1e-3);
  st.roll(2e-3);
  st.roll(3e-3);
  EXPECT_NEAR(st.window_at(0, 0, 0).busy, 0.5e-3, 1e-15);
  EXPECT_NEAR(st.window_at(0, 0, 1).busy, 1e-3, 1e-15);
  EXPECT_NEAR(st.window_at(0, 0, 2).busy, 0.8e-3, 1e-15);
  EXPECT_DOUBLE_EQ(st.link_busy_seconds(0, 0), 2.3e-3);
}

// ---------------------------------------------------------------------------
// Differential: windowed rollup vs full-resolution TimeSeries

TEST(StreamRollup, RollupMatchesFullResolutionTimeSeries) {
  auto h = small_harness();
  StreamConfig cfg;
  cfg.window_s = 1e-3;
  cfg.ring_windows = 4;
  cfg.rollup_levels = 2;
  StreamTelemetry st(cfg);
  st.bind(*h.net);
  TimeSeries ts(1e-3);  // the unbounded full-resolution reference

  // 10 windows of varying load on link (0,0), every transmission inside
  // its window, mirrored into the full-resolution series.
  const int kWindows = 10;
  std::vector<std::uint32_t> stalls_per_window;
  for (int w = 0; w < kWindows; ++w) {
    const int n = 1 + (w % 3);
    for (int k = 0; k < n; ++k) {
      const SimTime start = w * 1e-3 + k * 0.2e-3;
      st.on_transmit(0, 0, data_packet(0, 1), start, 0.05e-3);
      ts.add(start, 0.05e-3);
    }
    const std::uint32_t stalls = static_cast<std::uint32_t>(w % 2);
    for (std::uint32_t s = 0; s < stalls; ++s) {
      st.on_credit_stall(0, 0, w * 1e-3 + 0.9e-3);
    }
    stalls_per_window.push_back(stalls);
    st.roll((w + 1) * 1e-3);
  }
  EXPECT_EQ(st.windows_rolled(), static_cast<std::uint64_t>(kWindows));

  // 10 windows exceed the level-0 ring (4), so the layout mixes
  // resolutions — but every view must equal the sum of the reference
  // series' bins it covers, for means*counts, counts and stalls alike.
  const auto layout = st.window_layout();
  ASSERT_FALSE(layout.empty());
  EXPECT_EQ(layout.front().start, 0u) << "nothing folded to ancient yet";
  std::uint64_t covered = 0;
  for (std::size_t v = 0; v < layout.size(); ++v) {
    const auto& view = layout[v];
    double ref_busy = 0;
    std::uint64_t ref_packets = 0;
    std::uint32_t ref_stalls = 0;
    for (std::uint64_t b = view.start; b < view.start + view.span; ++b) {
      ref_busy += ts.bin_mean(b) * static_cast<double>(ts.bin_count(b));
      ref_packets += ts.bin_count(b);
      ref_stalls += stalls_per_window[b];
    }
    const auto agg = st.window_at(0, 0, v);
    EXPECT_NEAR(agg.busy, ref_busy, 1e-15) << "view " << v;
    EXPECT_EQ(agg.packets, ref_packets) << "view " << v;
    EXPECT_EQ(agg.stalls, ref_stalls) << "view " << v;
    covered += view.span;
  }
  EXPECT_EQ(covered, static_cast<std::uint64_t>(kWindows));
  EXPECT_EQ(st.ancient(0, 0).packets, 0u);
}

TEST(StreamRollup, AncientFoldConservesExactTotals) {
  auto h = small_harness();
  StreamConfig cfg;
  cfg.window_s = 1e-3;
  cfg.ring_windows = 2;  // tiny budget: 2 + 2x2 = 6 base windows retained
  cfg.rollup_levels = 1;
  StreamTelemetry st(cfg);
  st.bind(*h.net);
  TimeSeries ts(1e-3);

  const int kWindows = 20;
  for (int w = 0; w < kWindows; ++w) {
    const SimTime start = w * 1e-3 + 0.25e-3;
    const SimTime ser = (1 + w % 4) * 0.1e-3;
    st.on_transmit(0, 0, data_packet(0, 1), start, ser);
    ts.add(start, ser);
    st.roll((w + 1) * 1e-3);
  }

  const auto layout = st.window_layout();
  ASSERT_FALSE(layout.empty());
  // Everything older than the retained views lives in the ancient fold;
  // its totals must equal the reference series over [0, first view).
  const std::uint64_t ancient_windows = layout.front().start;
  EXPECT_GT(ancient_windows, 0u) << "20 windows must overflow a 6-window "
                                    "budget";
  double ref_busy = 0;
  std::uint64_t ref_packets = 0;
  for (std::uint64_t b = 0; b < ancient_windows; ++b) {
    ref_busy += ts.bin_mean(b) * static_cast<double>(ts.bin_count(b));
    ref_packets += ts.bin_count(b);
  }
  const auto anc = st.ancient(0, 0);
  EXPECT_NEAR(anc.busy, ref_busy, 1e-15);
  EXPECT_EQ(anc.packets, ref_packets);

  // Ancient + retained views == cumulative totals, exactly.
  double views_busy = anc.busy;
  std::uint64_t views_packets = anc.packets;
  std::uint64_t covered = ancient_windows;
  for (std::size_t v = 0; v < layout.size(); ++v) {
    views_busy += st.window_at(0, 0, v).busy;
    views_packets += st.window_at(0, 0, v).packets;
    covered += layout[v].span;
  }
  EXPECT_EQ(covered, static_cast<std::uint64_t>(kWindows));
  EXPECT_NEAR(views_busy, st.link_busy_seconds(0, 0), 1e-15);
  EXPECT_EQ(views_packets, st.link_packets(0, 0));
}

// ---------------------------------------------------------------------------
// Lead-time matcher (direct hook calls)

/// Lead-test config: EWMA == last window's utilization, so one saturated
/// window fires the onset and one idle window re-arms the detector.
StreamConfig lead_config() {
  StreamConfig cfg;
  cfg.window_s = 1e-3;
  cfg.ewma_alpha = 1.0;
  cfg.onset_threshold = 0.7;
  cfg.onset_clear = 0.5;
  return cfg;
}

TEST(StreamLead, OpenBeforeOnsetYieldsPositiveLead) {
  auto h = small_harness();
  StreamTelemetry st(lead_config());
  st.bind(*h.net);

  // The predictive engine opens (1,2) at 0.2 ms; the link the flow rides
  // saturates at the 1 ms window close: lead = +0.8 ms.
  st.on_metapath_open(1, 2, 2, /*predictive=*/true, 0.2e-3);
  st.on_transmit(0, 0, data_packet(1, 2), 0, 1e-3);
  st.roll(1e-3);
  EXPECT_EQ(st.onsets(), 1u);
  EXPECT_EQ(st.opens(true), 1u);
  ASSERT_EQ(st.lead_count(Class::kData, true), 1u);
  EXPECT_EQ(st.lead_count(Class::kData, false), 0u);
  const double median = st.lead_median(Class::kData);
  EXPECT_GE(median, 0.8e-3);
  EXPECT_LE(median, 0.8e-3 * 1.34);  // log-bucket upper bound

  // The open was consumed: a later onset on the same (still-open) flow
  // must not mint a second sample. Idle window re-arms, saturated window
  // fires again.
  st.on_transmit(0, 0, data_packet(1, 2), 1e-3, 0.1e-3);
  st.roll(2e-3);  // u = 0.1: re-armed
  st.on_transmit(0, 0, data_packet(1, 2), 2e-3, 1e-3);
  st.roll(3e-3);
  EXPECT_EQ(st.onsets(), 2u);
  EXPECT_EQ(st.lead_count(Class::kData, true), 1u);
}

TEST(StreamLead, OnsetBeforeOpenYieldsNegativeLead) {
  auto h = small_harness();
  StreamTelemetry st(lead_config());
  st.bind(*h.net);

  // Link saturates with no metapath open: the onset goes pending and the
  // late reactive open 0.5 ms later lands in the negative histogram.
  st.on_transmit(0, 0, data_packet(1, 2), 0, 1e-3);
  st.roll(1e-3);
  EXPECT_EQ(st.onsets(), 1u);
  EXPECT_EQ(st.lead_count(Class::kData, true), 0u);
  EXPECT_EQ(st.lead_count(Class::kData, false), 0u) << "no open yet";
  st.on_metapath_open(1, 2, 2, /*predictive=*/false, 1.5e-3);
  EXPECT_EQ(st.opens(false), 1u);
  ASSERT_EQ(st.lead_count(Class::kData, false), 1u);
  const double median = st.lead_median(Class::kData);
  EXPECT_LE(median, -0.5e-3);
  EXPECT_GE(median, -0.5e-3 * 1.34);
}

TEST(StreamLead, AckTrafficMatchesItsDataFlowsOpens) {
  auto h = small_harness();
  StreamTelemetry st(lead_config());
  st.bind(*h.net);

  // An ACK for flow (1,2) travels 2 -> 1; it must match the metapath open
  // keyed on the DATA flow orientation, but sample into the ACK class.
  Packet ack = data_packet(2, 1);
  ack.type = PacketType::kAck;
  st.on_metapath_open(1, 2, 2, /*predictive=*/true, 0.1e-3);
  st.on_transmit(0, 0, ack, 0, 1e-3);
  st.roll(1e-3);
  EXPECT_EQ(st.lead_count(Class::kAck, true), 1u);
  EXPECT_EQ(st.lead_count(Class::kData, true), 0u);
  EXPECT_GT(st.lead_median(Class::kAck), 0.0);
}

TEST(StreamLead, NoOnsetMeansNoLeadSamples) {
  auto h = small_harness();
  StreamTelemetry st(lead_config());
  st.bind(*h.net);

  // Light load (30% utilization) never crosses the onset threshold: opens
  // and closes happen, but no lead sample is ever minted.
  st.on_metapath_open(1, 2, 2, true, 0.1e-3);
  for (int w = 0; w < 6; ++w) {
    st.on_transmit(0, 0, data_packet(1, 2), w * 1e-3, 0.3e-3);
    st.roll((w + 1) * 1e-3);
  }
  st.on_metapath_close(1, 2, 1, 6e-3);
  EXPECT_EQ(st.onsets(), 0u);
  for (Class cls : {Class::kData, Class::kAck, Class::kPredictiveAck}) {
    EXPECT_EQ(st.lead_count(cls, true), 0u);
    EXPECT_EQ(st.lead_count(cls, false), 0u);
    EXPECT_DOUBLE_EQ(st.lead_median(cls), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Scenario integration

ScenarioSpec contended_spec() {
  ScenarioSpec sc;
  sc.topology = "mesh-4x4";
  sc.synthetic().pattern = "uniform";
  sc.synthetic().rate_bps = 600e6;
  sc.synthetic().bursts = 2;
  sc.synthetic().burst_len = 0.5e-3;
  sc.synthetic().gap_len = 0.5e-3;
  sc.synthetic().duration = 2e-3;
  sc.seed = 11;
  return sc;
}

/// The hotspot fixture EXPERIMENTS.md uses for the lead-time recipe: long
/// enough (three 2 ms bursts) for the EWMA detector to confirm onsets.
ScenarioSpec hotspot_spec() {
  ScenarioSpec sc;
  sc.topology = "mesh-8x8";
  sc.synthetic().pattern = "hotspot-cross";
  sc.synthetic().rate_bps = 1200e6;
  sc.synthetic().duration = 12e-3;
  sc.synthetic().bursts = 3;
  sc.synthetic().burst_len = 2e-3;
  sc.synthetic().gap_len = 1e-3;
  sc.seed = 11;
  return sc;
}

TEST(StreamScenario, AttachedRunLeavesResultsUntouched) {
  // The stream rolls and the registry samples at the run's window
  // boundaries, between events: the observed run equals the bare run,
  // event count included.
  const ScenarioResult bare = run_scenario("pr-drb", contended_spec());

  ScenarioSpec spec = contended_spec();
  obs::CounterRegistry reg(spec.bin_width);
  StreamTelemetry st;
  spec.sinks.counters = &reg;
  spec.sinks.stream = &st;
  const ScenarioResult observed = run_scenario("pr-drb", spec);
  // The headline fields are compared one by one so a drift names the
  // field instead of dumping raw bytes; the defaulted operator== then
  // covers the rest (exact doubles, full series).
  EXPECT_EQ(bare.events, observed.events) << "sinks added events";
  EXPECT_EQ(bare.packets, observed.packets);
  EXPECT_DOUBLE_EQ(bare.global_latency, observed.global_latency);
  EXPECT_DOUBLE_EQ(bare.mean_latency, observed.mean_latency);
  EXPECT_DOUBLE_EQ(bare.delivery_ratio, observed.delivery_ratio);
  EXPECT_EQ(bare.series, observed.series);
  EXPECT_EQ(bare, observed);
  EXPECT_GT(st.windows_rolled(), 0u);
  EXPECT_FALSE(st.bound()) << "run must finalize and unbind the stream";
}

TEST(StreamScenario, AttachedTraceRunLeavesResultsUntouched) {
  // The trace branch of run_scenario (the one prdrb_sim's manifest records
  // with the sinks attached) steps through the same windows.
  ScenarioSpec spec;
  spec.topology = "tree-16";
  spec.trace().app = "pop";
  spec.trace().scale.iterations = 2;
  const ScenarioResult bare = run_scenario("pr-drb", spec);

  obs::CounterRegistry reg(spec.bin_width);
  StreamTelemetry st;
  spec.sinks.counters = &reg;
  spec.sinks.stream = &st;
  const ScenarioResult observed = run_scenario("pr-drb", spec);
  EXPECT_GT(bare.exec_time, 0.0);
  EXPECT_EQ(bare.events, observed.events) << "sinks added events";
  EXPECT_EQ(bare, observed);
  EXPECT_GT(st.windows_rolled(), 0u);
  EXPECT_EQ(reg.current("sim.events"), static_cast<double>(bare.events));
}

TEST(StreamScenario, NdjsonByteIdenticalAcrossRepeatsAndBackends) {
  // Repeat runs export identically. ("Backends" in the name refers to a
  // second scheduler backend the kernel no longer has; tests/golden_test.cpp
  // pins results across builds.)
  const auto run_once = [] {
    ScenarioSpec spec = contended_spec();
    StreamTelemetry st;
    spec.sinks.stream = &st;
    run_scenario("pr-drb", spec);
    return st.ndjson();
  };
  const std::string ndjson = run_once();
  EXPECT_EQ(ndjson, run_once()) << "repeat runs must export identically";

  // Every NDJSON line is an intact document; the last is the summary.
  ASSERT_FALSE(ndjson.empty());
  std::size_t pos = 0;
  std::string last;
  while (pos < ndjson.size()) {
    const std::size_t nl = ndjson.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "stream must be newline-terminated";
    const std::string line = ndjson.substr(pos, nl - pos);
    EXPECT_TRUE(obs::json_valid(line)) << line.substr(0, 120);
    last = line;
    pos = nl + 1;
  }
  const auto doc = obs::json_parse(last);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_at("schema"), "prdrb-stream-v1");
  EXPECT_EQ(doc->string_at("kind"), "summary");
  EXPECT_GT(doc->number_at("state_bytes"), 0.0);
}

TEST(StreamScenario, LinkTotalsEqualFullResolutionTelemetry) {
  // The full-resolution reference is the network's own per-port accounting
  // (OutputPort::busy_time, credit_stalls, packets_sent). Small buffers and
  // an incast make ports stall; the stream rolls at every window boundary
  // after the first, the way run_scenario wires it.
  NetConfig cfg;
  cfg.buffer_bytes = 8 * 1024;
  auto h = Harness::make<Mesh2D>(cfg, new DeterministicPolicy, 4, 4);
  StreamConfig scfg;
  scfg.ring_windows = 2;
  scfg.rollup_levels = 1;  // a short run still folds into `ancient`
  StreamTelemetry st(scfg);
  obs::Probe probe({.stream = &st});
  h.net->bind_probe(&probe);
  for (int i = 0; i < 600; ++i) {
    const auto src = static_cast<NodeId>(1 + i % 15);
    h.net->send_message(src, 0, 2048);
  }
  h.sim.run_windows(20e-6, [&st](SimTime t) {
    if (t > 0) st.roll(t);
  });
  st.finalize(h.sim.now());

  // Both fold the same transmit/stall sites in the same order, so the
  // totals are bit-identical — the stream's bounded windows lose
  // resolution, never accounting.
  const auto doc = obs::json_parse(st.telemetry_json());
  ASSERT_TRUE(doc.has_value());
  const auto& exported = doc->find("links")->items();
  std::size_t next = 0;
  std::uint64_t stalls = 0;
  std::uint64_t folded = 0;
  for (RouterId r = 0; r < 16; ++r) {
    const auto& ports = h.net->router(r).ports;
    for (std::size_t p = 0; p < ports.size(); ++p) {
      const int port = static_cast<int>(p);
      const OutputPort& out = ports[p];
      EXPECT_EQ(st.link_busy_seconds(r, port), out.busy_time)
          << "router " << r << " port " << port;
      EXPECT_EQ(st.link_stalls(r, port), out.credit_stalls)
          << "router " << r << " port " << port;
      EXPECT_EQ(st.link_packets(r, port), out.packets_sent)
          << "router " << r << " port " << port;
      stalls += out.credit_stalls;
      folded += st.ancient(r, port).packets;
      if (out.busy_time == 0 && out.credit_stalls == 0) continue;
      // The export lists exactly the active links, in router/port order,
      // with the same totals.
      ASSERT_LT(next, exported.size());
      const obs::JsonValue& link = exported[next++];
      EXPECT_EQ(link.number_at("router"), r);
      EXPECT_EQ(link.number_at("port"), port);
      EXPECT_EQ(link.number_at("busy_s"), out.busy_time);
      EXPECT_EQ(link.number_at("stalls"),
                static_cast<double>(out.credit_stalls));
      EXPECT_EQ(link.number_at("packets"),
                static_cast<double>(out.packets_sent));
    }
  }
  EXPECT_EQ(next, exported.size());
  EXPECT_GT(stalls, 0u) << "the incast must make ports stall";
  EXPECT_GT(folded, 0u) << "the run must outlast the retained windows";
}

TEST(StreamScenario, HotspotRunYieldsPositiveMedianLead) {
  ScenarioSpec spec = hotspot_spec();
  StreamTelemetry st;
  spec.sinks.stream = &st;
  run_scenario("pr-drb", spec);

  // The paper's claim, end to end: under a sustained hotspot, PR-DRB's
  // metapaths open BEFORE the EWMA detector confirms congestion onsets,
  // so the median lead over data traffic is positive.
  EXPECT_GT(st.onsets(), 0u);
  EXPECT_GT(st.opens(true) + st.opens(false), 0u);
  ASSERT_GT(st.lead_count(Class::kData, true), 0u);
  EXPECT_GT(st.lead_median(Class::kData), 0.0);
}

// ---------------------------------------------------------------------------
// Bounded memory and allocation-freedom

TEST(StreamMemory, StateStaysFlatWhileFullResolutionGrows) {
  auto h = small_harness();
  StreamTelemetry st;
  st.bind(*h.net);
  TimeSeries ts(1e-3);  // the unbounded full-resolution reference

  const auto drive_to = [&](int windows, int from) {
    for (int w = from; w < windows; ++w) {
      st.on_transmit(0, 0, data_packet(0, 1), w * 1e-3, 0.4e-3);
      ts.add(w * 1e-3, 0.4e-3);
      st.roll((w + 1) * 1e-3);
    }
  };
  drive_to(50, 0);
  const std::size_t at_50 = st.memory_bytes();
  drive_to(400, 50);
  const std::size_t at_400 = st.memory_bytes();
  // O(links x windows) vs O(links x sim-time): the stream's state gauge is
  // byte-for-byte flat over 8x the horizon; the full-resolution series
  // keeps growing a bin per window.
  EXPECT_EQ(at_400, at_50);
  EXPECT_GE(st.link_busy_seconds(0, 0), 400 * 0.4e-3 - 1e-12);
  EXPECT_GE(ts.bins(), 400u);
}

TEST(Allocations, StreamHooksSteadyStateIsAllocationFree) {
  auto h = small_harness();
  StreamConfig cfg = lead_config();
  cfg.snapshot_every = 1u << 20;  // keep NDJSON emission out of the loop
  StreamTelemetry st(cfg);
  st.bind(*h.net);

  // Warm-up: create the flow-map nodes and recent-flow entries this
  // traffic will reuse, and run one full onset/re-arm cycle.
  const auto cycle = [&](int i) {
    const SimTime base = 2.0 * i * 1e-3;
    st.on_metapath_open(1, 2, 2, true, base + 0.1e-3);
    st.on_transmit(0, 0, data_packet(1, 2), base, 0.9e-3);
    st.on_credit_stall(0, 0, base + 0.5e-3);
    st.roll(base + 1e-3);  // u = 0.9: onset fires, positive lead minted
    st.roll(base + 2e-3);  // idle window: detector re-arms
    st.on_metapath_close(1, 2, 1, base + 2e-3);
  };
  cycle(0);

  test::AllocationScope scope;
  for (int i = 1; i <= 5000; ++i) cycle(i);
  EXPECT_EQ(scope.count(), 0u)
      << "stream hot-path hooks allocated in steady state";
  EXPECT_EQ(st.onsets(), 5001u);
  EXPECT_EQ(st.lead_count(Class::kData, true), 5001u);
}

}  // namespace
}  // namespace prdrb
