// check_scenario, the one home of the scenario rules: its verdict on every
// pattern x topology pair, every accepted pair running to drain, the name
// diagnostics, and each numeric rule at its edges.
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "util/random.hpp"

namespace prdrb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::nan("");

/// A 20 us continuous synthetic run: a few packets per node.
ScenarioSpec small_synthetic(const std::string& topology,
                             const std::string& pattern) {
  ScenarioSpec sc;
  sc.topology = topology;
  SyntheticWorkload& w = sc.synthetic();
  w.pattern = pattern;
  w.rate_bps = 1e9;
  w.duration = 20e-6;
  w.bursts = 0;
  return sc;
}

ScenarioSpec small_trace() {
  ScenarioSpec sc;
  sc.topology = "tree-16";
  sc.trace().app = "pop";
  sc.trace().scale.iterations = 2;
  return sc;
}

/// What each topology offers the pattern rules, written out by hand.
struct Shape {
  const char* topology;
  int nodes;
  bool power_of_two;
  bool grid_2d;    // a Mesh2D (2D mesh or torus)
  bool four_wide;  // a Mesh2D at least 4 routers wide
  bool dragonfly;
};

constexpr Shape kShapes[] = {
    {"mesh-2x2", 4, true, true, false, false},
    {"mesh-3x3", 9, false, true, false, false},
    {"mesh-4x4", 16, true, true, true, false},
    {"torus-5x5", 25, false, true, true, false},
    {"mesh-4x4x4", 64, true, false, false, false},
    {"cube-3", 8, true, false, false, false},
    {"tree-16", 16, true, false, false, false},
    {"kary-2-3", 8, true, false, false, false},
    {"dragonfly-4:9:2:4", 144, false, false, false, true},
};

bool accepts(const std::string& pattern, const Shape& s) {
  if (pattern == "hotspot-cross") return s.grid_2d;
  if (pattern == "hotspot-double") return s.four_wide;
  if (pattern == "adversarial-group") return s.dragonfly;
  if (pattern == "uniform" || pattern == "tornado" || pattern == "neighbor") {
    return true;
  }
  return s.power_of_two;  // the five bit permutations
}

TEST(ScenarioCheck, EveryPatternOnEveryTopologyRunsOrIsRejected) {
  const std::vector<std::string> patterns{
      "uniform",        "bit-reversal", "perfect-shuffle", "matrix-transpose",
      "bit-complement", "tornado",      "neighbor",        "butterfly",
      "hotspot-cross",  "hotspot-double", "adversarial-group"};
  int runs = 0;
  for (const Shape& shape : kShapes) {
    for (const std::string& pattern : patterns) {
      const std::string row = pattern + " on " + shape.topology;
      const ScenarioSpec sc = small_synthetic(shape.topology, pattern);
      const Parsed<CheckedScenario> checked = check_scenario("pr-drb", sc);
      ASSERT_EQ(checked.ok(), accepts(pattern, shape))
          << row << (checked.ok() ? "" : ": " + checked.error().what());
      if (!checked.ok()) {
        EXPECT_EQ(checked.error().input, pattern) << row;
        EXPECT_THROW(run_scenario("pr-drb", sc), std::invalid_argument)
            << row;
        continue;
      }
      ASSERT_EQ(checked.value().topology->num_nodes(), shape.nodes) << row;
      const DestinationPattern& dests = *checked.value().traffic.pattern;
      Rng rng(1);
      for (NodeId src = 0; src < shape.nodes; ++src) {
        const NodeId dst = dests.destination(src, rng);
        ASSERT_TRUE(dst >= 0 && dst < shape.nodes)
            << row << ": " << src << " -> " << dst;
      }
      const ScenarioResult r = run_scenario("pr-drb", sc);
      EXPECT_GT(r.packets, 0u) << row;
      EXPECT_EQ(r.delivery_ratio, 1.0) << row;
      ++runs;
    }
  }
  EXPECT_EQ(runs, 64);
}

TEST(ScenarioCheck, NamesKeepTheirFactoryDiagnosticsOrSuggestTheNearest) {
  const auto error = [](const std::string& policy, const ScenarioSpec& sc) {
    const Parsed<CheckedScenario> r = check_scenario(policy, sc);
    return r.ok() ? std::string("accepted") : r.error().what();
  };
  const ScenarioSpec mesh = small_synthetic("mesh-4x4", "uniform");
  EXPECT_EQ(error("pr-dbr", mesh), make_policy("pr-dbr").error().what());
  ScenarioSpec sc = mesh;
  sc.topology = "mesh-1x1";
  EXPECT_EQ(error("pr-drb", sc), make_topology("mesh-1x1").error().what());
  sc = mesh;
  sc.synthetic().pattern = "unifrom";
  EXPECT_EQ(error("pr-drb", sc),
            "unknown pattern 'unifrom' (did you mean 'uniform'?)");
  sc.synthetic().pattern = "hotspot-crss";
  EXPECT_EQ(error("pr-drb", sc),
            "unknown pattern 'hotspot-crss' (did you mean 'hotspot-cross'?)");
  sc = small_trace();
  sc.trace().app = "lammps-chian";
  EXPECT_EQ(error("pr-drb", sc),
            "unknown app 'lammps-chian' (did you mean 'lammps-chain'?)");
  sc.trace().app = "bogus";
  EXPECT_EQ(error("pr-drb", sc), "unknown app 'bogus'");
}

/// The check's verdict on `sc`; a rejection must name `field`.
void expect_verdict(const ScenarioSpec& sc, const std::string& field,
                    double value, bool accepted) {
  const Parsed<CheckedScenario> r = check_scenario("deterministic", sc);
  const std::string row = field + " = " + std::to_string(value);
  ASSERT_EQ(r.ok(), accepted)
      << row << (r.ok() ? "" : ": " + r.error().what());
  if (!accepted) {
    EXPECT_NE(r.error().what().find(field), std::string::npos)
        << row << ": " << r.error().what();
  }
}

TEST(ScenarioCheck, NumericRulesAtTheirEdges) {
  const ScenarioSpec base = small_synthetic("mesh-4x4", "uniform");
  const auto synthetic = [&](double SyntheticWorkload::*field, double v) {
    ScenarioSpec sc = base;
    sc.synthetic().*field = v;
    return sc;
  };
  const std::pair<const char*, double SyntheticWorkload::*> positive[] = {
      {"rate_bps", &SyntheticWorkload::rate_bps},
      {"duration", &SyntheticWorkload::duration},
      {"burst_len", &SyntheticWorkload::burst_len}};
  for (const auto& [name, field] : positive) {
    for (const double v : {0.0, -1.0, kNaN, kInf, -kInf}) {
      expect_verdict(synthetic(field, v), name, v, false);
    }
    expect_verdict(synthetic(field, 1e-3), name, 1e-3, true);
  }
  const std::pair<const char*, double SyntheticWorkload::*> non_negative[] = {
      {"gap_len", &SyntheticWorkload::gap_len},
      {"noise_rate_bps", &SyntheticWorkload::noise_rate_bps}};
  for (const auto& [name, field] : non_negative) {
    expect_verdict(synthetic(field, 0.0), name, 0.0, true);
    for (const double v : {-1.0, kNaN, kInf, -kInf}) {
      expect_verdict(synthetic(field, v), name, v, false);
    }
  }
  for (const int bursts : {-1, 0, 1}) {
    ScenarioSpec sc = base;
    sc.synthetic().bursts = bursts;
    expect_verdict(sc, "bursts", bursts, bursts >= 0);
  }

  // Offered packets on mesh-4x4's 16 nodes over 1 s: exactly the cap at a
  // rate of cap x 8192 bits / 16, then just past it, also through the noise.
  const double cap_rate = static_cast<double>(kMaxOfferedPackets) * 8192 / 16;
  const auto offered = [&](double rate, double noise, bool accepted) {
    ScenarioSpec sc = synthetic(&SyntheticWorkload::duration, 1.0);
    sc.synthetic().rate_bps = rate;
    sc.synthetic().noise_rate_bps = noise;
    expect_verdict(sc, "offered packets", rate + noise, accepted);
  };
  offered(cap_rate, 0, true);
  offered(std::nextafter(cap_rate, kInf), 0, false);
  offered(cap_rate / 2, cap_rate / 2, true);
  offered(cap_rate / 2, cap_rate / 2 + 1, false);
  offered(1e20, 0, false);

  for (const int n : {-1, 0, 1, kMaxTraceIterations, kMaxTraceIterations + 1}) {
    ScenarioSpec sc = small_trace();
    sc.trace().scale.iterations = n;
    expect_verdict(sc, "iterations", n, n >= 1 && n <= kMaxTraceIterations);
  }
  const std::pair<const char*, double TraceScale::*> scales[] = {
      {"bytes_scale", &TraceScale::bytes_scale},
      {"compute_scale", &TraceScale::compute_scale}};
  for (const auto& [name, field] : scales) {
    const double cap = field == &TraceScale::bytes_scale
                           ? kMaxTraceBytesScale
                           : kMaxTraceComputeScale;
    for (const double v :
         {0.0, -1.0, kNaN, kInf, -kInf, cap, std::nextafter(cap, kInf)}) {
      ScenarioSpec sc = small_trace();
      sc.trace().scale.*field = v;
      expect_verdict(sc, name, v, v >= 0 && v <= cap);
    }
  }
}

}  // namespace
}  // namespace prdrb
