// Tests for the auxiliary library features: the torus topology, the
// extended synthetic-pattern suite, trace-file serialization, the latency
// histogram and the experiment harness.
#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "metrics/histogram.hpp"
#include "metrics/map_render.hpp"
#include "routing/oblivious.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"
#include "trace/player.hpp"

namespace prdrb {
namespace {

using test::Harness;

// ---------------------------------------------------------------------------
// Torus

TEST(Torus, WraparoundNeighbors) {
  Mesh2D t(4, 4, /*wraparound=*/true);
  EXPECT_EQ(t.name(), "torus-4x4");
  const PortTarget west_of_origin = t.neighbor(t.at(0, 0), Mesh2D::kWest);
  ASSERT_TRUE(west_of_origin.valid());
  EXPECT_EQ(west_of_origin.router, t.at(3, 0));
  const PortTarget south_of_origin = t.neighbor(t.at(0, 0), Mesh2D::kSouth);
  ASSERT_TRUE(south_of_origin.valid());
  EXPECT_EQ(south_of_origin.router, t.at(0, 3));
}

TEST(Torus, NeighborSymmetryHolds) {
  Mesh2D t(5, 4, true);
  for (RouterId r = 0; r < t.num_routers(); ++r) {
    for (int p = 0; p < t.radix(r); ++p) {
      const PortTarget tgt = t.neighbor(r, p);
      ASSERT_TRUE(tgt.valid());
      const PortTarget back = t.neighbor(tgt.router, tgt.port);
      EXPECT_EQ(back.router, r);
      EXPECT_EQ(back.port, p);
    }
  }
}

TEST(Torus, DistanceTakesShorterWayAround) {
  Mesh2D t(8, 8, true);
  EXPECT_EQ(t.distance(t.at(0, 0), t.at(7, 0)), 1);  // wrap west
  EXPECT_EQ(t.distance(t.at(0, 0), t.at(4, 0)), 4);  // half way
  EXPECT_EQ(t.distance(t.at(1, 1), t.at(6, 6)), 3 + 3);
  // The open mesh disagrees:
  Mesh2D m(8, 8, false);
  EXPECT_EQ(m.distance(m.at(0, 0), m.at(7, 0)), 7);
}

TEST(Torus, MinimalRouteDeliversEverywhere) {
  Mesh2D t(5, 5, true);
  std::vector<int> ports;
  for (NodeId s = 0; s < 25; ++s) {
    for (NodeId d = 0; d < 25; ++d) {
      RouterId at = t.node_router(s);
      int hops = 0;
      while (at != t.node_router(d)) {
        ports.clear();
        t.minimal_ports(at, d, ports);
        ASSERT_FALSE(ports.empty());
        at = t.neighbor(at, ports.front()).router;
        ASSERT_LE(++hops, t.distance(s, d));
      }
      EXPECT_EQ(hops, t.distance(s, d));
    }
  }
}

TEST(Torus, PacketsFlowEndToEnd) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 4, 4,
                                 true);
  for (NodeId s = 0; s < 16; ++s) h.net->send_message(s, (s + 5) % 16, 1024);
  h.sim.run();
  EXPECT_DOUBLE_EQ(h.metrics->delivery_ratio(), 1.0);
}

// ---------------------------------------------------------------------------
// Extended patterns

class ExtendedPatternProperty : public ::testing::TestWithParam<const char*> {
};

TEST_P(ExtendedPatternProperty, IsPermutation) {
  const int nodes = 64;
  auto pat = make_pattern(GetParam(), nodes);
  Rng rng(1);
  std::set<NodeId> dests;
  for (NodeId s = 0; s < nodes; ++s) {
    const NodeId d = pat->destination(s, rng);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, nodes);
    dests.insert(d);
  }
  EXPECT_EQ(static_cast<int>(dests.size()), nodes);
}

INSTANTIATE_TEST_SUITE_P(Names, ExtendedPatternProperty,
                         ::testing::Values("bit-complement", "tornado",
                                           "neighbor", "butterfly"));

TEST(ExtendedPatterns, DefinitionsSpotChecks) {
  Rng rng(1);
  BitComplementPattern comp(16);
  EXPECT_EQ(comp.destination(0b0101, rng), 0b1010);
  TornadoPattern tor(16);
  EXPECT_EQ(tor.destination(0, rng), 7);  // N/2 - 1
  NeighborPattern nb(16);
  EXPECT_EQ(nb.destination(15, rng), 0);
  ButterflyPattern bf(16);
  EXPECT_EQ(bf.destination(0b1000, rng), 0b0001);
  EXPECT_EQ(bf.destination(0b0001, rng), 0b1000);
  EXPECT_EQ(bf.destination(0b1001, rng), 0b1001);  // fixed point
}

TEST(ExtendedPatterns, FactoryKnowsAllNames) {
  for (const NamedPattern& p : pattern_table()) {
    EXPECT_NO_THROW(make_pattern(std::string(p.name), 16)) << p.name;
  }
  EXPECT_EQ(pattern_table().size(), 8u);
}

// ---------------------------------------------------------------------------
// Trace serialization

TEST(TraceFile, RoundTripPreservesEverything) {
  const TraceProgram prog = make_pop(16, TraceScale{2, 1.0, 1.0});
  std::stringstream buf;
  prog.export_text(buf);
  const TraceProgram back = TraceProgram::import_text(buf);
  ASSERT_EQ(back.ranks(), prog.ranks());
  EXPECT_EQ(back.app_name(), prog.app_name());
  ASSERT_EQ(back.total_events(), prog.total_events());
  for (int r = 0; r < prog.ranks(); ++r) {
    const auto& a = prog.events(r);
    const auto& b = back.events(r);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].op, b[i].op);
      EXPECT_EQ(a[i].peer, b[i].peer);
      EXPECT_EQ(a[i].bytes, b[i].bytes);
      EXPECT_EQ(a[i].tag, b[i].tag);
      EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds);
    }
  }
}

TEST(TraceFile, ImportedTraceReplaysIdentically) {
  const TraceProgram prog = make_nas_lu(16, TraceScale{2, 1.0, 1.0});
  std::stringstream buf;
  prog.export_text(buf);
  const TraceProgram back = TraceProgram::import_text(buf);
  auto run = [](const TraceProgram& p) {
    auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 4, 4);
    TracePlayer player(h.sim, *h.net, p);
    player.start();
    h.sim.run();
    EXPECT_TRUE(player.finished());
    return player.execution_time();
  };
  EXPECT_DOUBLE_EQ(run(prog), run(back));
}

TEST(TraceFile, RejectsGarbage) {
  std::stringstream bad("not-a-trace 9");
  EXPECT_THROW(TraceProgram::import_text(bad), std::runtime_error);
  std::stringstream truncated("prdrb-trace 1 2 x\nrank 0 5\n0 0 0 0 0 0 0\n");
  EXPECT_THROW(TraceProgram::import_text(truncated), std::runtime_error);
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(Histogram, PercentilesBracketSamples) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.record(1e-6);
  h.record(1e-3);  // one big outlier
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LT(h.p50(), 2e-6);
  EXPECT_LT(h.p95(), 2e-6);
  EXPECT_GE(h.p99(), 1e-6);
  EXPECT_GE(h.percentile(1.0), 1e-3);
}

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
}

TEST(Histogram, EmptyIsDefinedForEveryP) {
  LatencyHistogram h;
  for (double p : {-1.0, 0.0, 0.5, 1.0, 2.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 0.0) << "p=" << p;
  }
}

TEST(Histogram, POneReturnsLastOccupiedBucketNotArrayEnd) {
  LatencyHistogram h;
  h.record(1e-6);
  h.record(2e-6);
  // p == 1.0 must resolve to the bucket holding the 2 us sample, not to
  // the histogram's top bucket (~1000 s).
  EXPECT_GE(h.percentile(1.0), 2e-6);
  EXPECT_LT(h.percentile(1.0), 1e-5);
  // Out-of-range p clamps instead of walking past the bucket array.
  EXPECT_DOUBLE_EQ(h.percentile(5.0), h.percentile(1.0));
}

TEST(Histogram, PZeroSkipsEmptyLeadingBuckets) {
  LatencyHistogram h;
  h.record(1e-4);  // far above the 100 ns first bucket
  // p <= 0 must land on the first occupied bucket, not bucket 0.
  EXPECT_GE(h.percentile(0.0), 1e-4);
  EXPECT_DOUBLE_EQ(h.percentile(-0.5), h.percentile(0.0));
}

TEST(Histogram, ExtremeSamplesClampIntoEdgeBuckets) {
  LatencyHistogram h;
  h.record(0.0);    // below kMinLatency
  h.record(1e9);    // beyond the last bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.percentile(1.0), 0.0);
}

TEST(Histogram, ResetClears) {
  LatencyHistogram h;
  h.record(1e-6);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, CollectorExposesPercentiles) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 4, 4);
  for (int i = 0; i < 50; ++i) h.net->send_message(0, 3, 1024);
  h.sim.run();
  EXPECT_EQ(h.metrics->latency_histogram().count(), 50u);
  EXPECT_GT(h.metrics->latency_histogram().p99(),
            h.metrics->latency_histogram().p50() * 0.99);
}

// ---------------------------------------------------------------------------
// Map rendering

TEST(MapRender, MeshGridShape) {
  Mesh2D mesh(3, 2);
  std::vector<double> map(6, 0.0);
  map[static_cast<std::size_t>(mesh.at(2, 1))] = 5e-6;
  std::ostringstream os;
  render_mesh_map(os, mesh, map);
  const std::string out = os.str();
  EXPECT_NE(out.find("mesh-3x2"), std::string::npos);
  EXPECT_NE(out.find("5.00"), std::string::npos);
  // Two data rows (height 2).
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(MapRender, TreeLevels) {
  KAryNTree tree(2, 3);
  std::vector<double> map(static_cast<std::size_t>(tree.num_routers()), 1e-6);
  std::ostringstream os;
  render_tree_map(os, tree, map);
  const std::string out = os.str();
  EXPECT_NE(out.find("L0:"), std::string::npos);
  EXPECT_NE(out.find("L2:"), std::string::npos);
}

TEST(MapRender, DispatchOnTopologyType) {
  std::ostringstream mesh_os;
  Mesh2D mesh(2, 2);
  render_map(mesh_os, mesh, std::vector<double>(4, 0.0));
  EXPECT_NE(mesh_os.str().find("mesh-2x2"), std::string::npos);
  std::ostringstream tree_os;
  KAryNTree tree(2, 2);
  render_map(tree_os, tree,
             std::vector<double>(static_cast<std::size_t>(tree.num_routers()), 0.0));
  EXPECT_NE(tree_os.str().find("2-ary 2-tree"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Experiment harness

TEST(ExperimentHarness, TopologyFactory) {
  EXPECT_EQ(make_topology("mesh-4x4").value()->num_nodes(), 16);
  EXPECT_EQ(make_topology("torus-4x4").value()->name(), "torus-4x4");
  EXPECT_EQ(make_topology("tree-64").value()->num_nodes(), 64);
  EXPECT_EQ(make_topology("kary-2-3").value()->num_nodes(), 8);
  const auto bad = make_topology("ring-9");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, "topology");
  EXPECT_EQ(bad.error().input, "ring-9");
  // The throwing escape hatch still honours the old contract.
  EXPECT_THROW(make_topology("ring-9").value_or_throw(),
               std::invalid_argument);
  // A near-miss of a known name carries a suggestion.
  const auto typo = make_topology("tree-63");
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.error().suggestion, "tree-64");
}

TEST(ExperimentHarness, PolicyFactoryCoversEvaluatedSet) {
  for (const char* name :
       {"deterministic", "random", "cyclic", "adaptive", "drb", "fr-drb",
        "pr-drb", "pr-fr-drb", "pr-drb@router"}) {
    const PolicyBundle b = make_policy(name).value_or_throw();
    EXPECT_NE(b.policy, nullptr) << name;
  }
  EXPECT_NE(make_policy("pr-drb@router").value().monitor, nullptr);
  EXPECT_EQ(make_policy("pr-drb@router").value().monitor->mode(),
            NotificationMode::kRouterBased);
  const auto bad = make_policy("ospf");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, "policy");
  EXPECT_THROW(make_policy("ospf").value_or_throw(), std::invalid_argument);
  // Near-miss suggestions, including through the "@router" suffix.
  const auto typo = make_policy("pr-dbr");
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.error().suggestion, "pr-drb");
  const auto router_typo = make_policy("pr-dbr@router");
  ASSERT_FALSE(router_typo.ok());
  EXPECT_EQ(router_typo.error().suggestion, "pr-drb@router");
}

TEST(ExperimentHarness, SyntheticRunProducesMetrics) {
  ScenarioSpec sc;
  sc.topology = "mesh-4x4";
  sc.synthetic().pattern = "uniform";
  sc.synthetic().rate_bps = 200e6;
  sc.synthetic().duration = 1e-3;
  sc.synthetic().bursts = 0;
  const ScenarioResult r = run_scenario("deterministic", sc);
  EXPECT_GT(r.packets, 0u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0);
  EXPECT_GT(r.global_latency, 0.0);
  EXPECT_EQ(r.router_map.size(), 16u);
}

TEST(ExperimentHarness, ImprovementPctGuardsDegenerateInputs) {
  EXPECT_DOUBLE_EQ(improvement_pct(10.0, 5.0), 50.0);
  EXPECT_DOUBLE_EQ(improvement_pct(10.0, 15.0), -50.0);
  // A baseline of 0 (e.g. a run that recorded no latency) must not divide.
  EXPECT_DOUBLE_EQ(improvement_pct(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement_pct(-1.0, 5.0), 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(improvement_pct(nan, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement_pct(10.0, nan), 0.0);
  EXPECT_DOUBLE_EQ(improvement_pct(inf, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement_pct(10.0, inf), 0.0);
}

TEST(ExperimentHarness, SummarizeStatistics) {
  const Replication r = summarize({2.0, 4.0, 6.0});
  EXPECT_EQ(r.runs, 3);
  EXPECT_DOUBLE_EQ(r.mean, 4.0);
  EXPECT_DOUBLE_EQ(r.min, 2.0);
  EXPECT_DOUBLE_EQ(r.max, 6.0);
  EXPECT_DOUBLE_EQ(r.stddev, 2.0);
  EXPECT_GT(r.ci95(), 0.0);
  EXPECT_EQ(summarize({}).runs, 0);
  EXPECT_DOUBLE_EQ(summarize({5.0}).ci95(), 0.0);
}

TEST(ExperimentHarness, ReplicatedRunsVaryBySeedOnly) {
  ScenarioSpec sc;
  sc.topology = "mesh-4x4";
  sc.synthetic().pattern = "uniform";
  sc.synthetic().rate_bps = 400e6;
  sc.synthetic().duration = 1e-3;
  sc.synthetic().bursts = 0;
  const auto runs = run_synthetic_replicated("drb", sc, 3);
  ASSERT_EQ(runs.size(), 3u);
  for (const auto& r : runs) EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0);
  const Replication lat = replicate_metric(
      runs, [](const ScenarioResult& r) { return r.global_latency; });
  EXPECT_EQ(lat.runs, 3);
  EXPECT_GT(lat.mean, 0.0);
  // Different seeds -> different (but close) latencies.
  EXPECT_GT(lat.max, lat.min);
}

TEST(ExperimentHarness, TraceRunReportsExecutionTime) {
  ScenarioSpec sc;
  sc.topology = "tree-16";
  sc.trace().app = "sweep3d";
  sc.trace().scale.iterations = 2;
  const ScenarioResult r = run_scenario("drb", sc);
  EXPECT_GT(r.exec_time, 0.0);
  EXPECT_GT(r.packets, 0u);
}

}  // namespace
}  // namespace prdrb
