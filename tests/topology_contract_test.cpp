// Shared contract suite over every concrete topology (topology.hpp): the
// invariants the routing layer builds on hold for the 2D mesh and torus, the
// N-dimensional mesh, the k-ary n-tree and the dragonfly alike —
//
//   * neighbor() is an involution (reciprocal ports) and reciprocal ports
//     share a link class;
//   * distance() is a symmetric non-negative metric with distance(a, a) = 0;
//   * walking any first minimal port reaches the destination in exactly
//     distance() hops (minimal really is minimal, and strictly decreasing);
//   * minimal_ports / msp_candidates APPEND in a canonical deterministic
//     order, preserving existing buffer contents;
//   * every MSP ring beyond num_nodes() is exhausted;
//   * deterministic_choice and nonminimal_intermediate are pure functions
//     of their arguments, in range, and never return an endpoint.
//
// New topologies join the suite by adding one factory line to kCases.
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/dragonfly.hpp"
#include "net/kary_ntree.hpp"
#include "net/mesh2d.hpp"
#include "net/mesh_nd.hpp"
#include "net/topology.hpp"

namespace prdrb {
namespace {

struct TopoCase {
  const char* label;
  std::unique_ptr<Topology> (*make)();
};

// CTest names each case "<label>  # GetParam() = <this>"; the default byte
// dump would print the two pointers, which change from build to build.
void PrintTo(const TopoCase& c, std::ostream* os) { *os << c.make()->name(); }

const TopoCase kCases[] = {
    {"Mesh2D", [] {
       return std::unique_ptr<Topology>(std::make_unique<Mesh2D>(4, 4));
     }},
    {"Torus2D", [] {
       return std::unique_ptr<Topology>(std::make_unique<Mesh2D>(4, 4, true));
     }},
    {"MeshND", [] {
       return std::unique_ptr<Topology>(
           std::make_unique<MeshND>(std::vector<int>{3, 3, 3}, true));
     }},
    // Degenerate tori, pinned by DegenerateGrid below.
    {"Torus6x1", [] {
       return std::unique_ptr<Topology>(std::make_unique<Mesh2D>(6, 1, true));
     }},
    {"Torus2x4", [] {
       return std::unique_ptr<Topology>(std::make_unique<Mesh2D>(2, 4, true));
     }},
    {"KAryNTree", [] {
       return std::unique_ptr<Topology>(std::make_unique<KAryNTree>(4, 2));
     }},
    {"Dragonfly", [] {
       return std::unique_ptr<Topology>(std::make_unique<Dragonfly>(4, 9, 2, 4));
     }},
    {"DragonflyMin", [] {
       return std::unique_ptr<Topology>(std::make_unique<Dragonfly>(2, 3, 1, 1));
     }},
};

class TopologyContract : public ::testing::TestWithParam<TopoCase> {
 protected:
  void SetUp() override { topo_ = GetParam().make(); }

  /// A small deterministic sample of node pairs spread across the machine.
  std::vector<std::pair<NodeId, NodeId>> sample_pairs() const {
    const int n = topo_->num_nodes();
    std::vector<std::pair<NodeId, NodeId>> pairs;
    const int stride = n >= 7 ? n / 7 : 1;
    for (int s = 0; s < n; s += stride) {
      for (int d : {0, n / 3, n - 1 - s % 3}) {
        if (d >= 0 && d < n) pairs.emplace_back(s, d);
      }
    }
    return pairs;
  }

  std::unique_ptr<Topology> topo_;
};

TEST_P(TopologyContract, NeighborReciprocityAndClassSymmetry) {
  const Topology& t = *topo_;
  int connected = 0;
  for (RouterId r = 0; r < t.num_routers(); ++r) {
    for (int p = 0; p < t.radix(r); ++p) {
      const PortTarget far = t.neighbor(r, p);
      const LinkClass cls = t.link_class(r, p);
      if (!far.valid()) {
        EXPECT_EQ(cls, LinkClass::kInvalid)
            << GetParam().label << " r" << r << " p" << p;
        continue;
      }
      ++connected;
      ASSERT_GE(far.router, 0);
      ASSERT_LT(far.router, t.num_routers());
      ASSERT_GE(far.port, 0);
      ASSERT_LT(far.port, t.radix(far.router));
      const PortTarget back = t.neighbor(far.router, far.port);
      ASSERT_TRUE(back.valid());
      EXPECT_EQ(back.router, r) << GetParam().label << " r" << r << " p" << p;
      EXPECT_EQ(back.port, p) << GetParam().label << " r" << r << " p" << p;
      // Reciprocal ports are the same physical link; classes must agree,
      // and an inter-router link is never "terminal".
      EXPECT_EQ(cls, t.link_class(far.router, far.port));
      EXPECT_TRUE(cls == LinkClass::kLocal || cls == LinkClass::kGlobal);
    }
  }
  EXPECT_GT(connected, 0);
}

TEST_P(TopologyContract, DistanceIsASymmetricMetric) {
  const Topology& t = *topo_;
  for (const auto& [s, d] : sample_pairs()) {
    const int sd = t.distance(s, d);
    EXPECT_GE(sd, 0);
    EXPECT_EQ(sd, t.distance(d, s)) << GetParam().label << " " << s << "<->"
                                    << d;
    if (t.node_router(s) == t.node_router(d)) {
      EXPECT_EQ(sd, 0);
    }
  }
  for (NodeId n = 0; n < t.num_nodes(); n += 3) {
    EXPECT_EQ(t.distance(n, n), 0);
  }
}

TEST_P(TopologyContract, MinimalWalkReachesDestinationInDistanceHops) {
  const Topology& t = *topo_;
  std::vector<int> ports;
  for (const auto& [s, d] : sample_pairs()) {
    RouterId r = t.node_router(s);
    const RouterId goal = t.node_router(d);
    const int expect_hops = t.distance(s, d);
    int hops = 0;
    while (r != goal) {
      ports.clear();
      t.minimal_ports(r, d, ports);
      ASSERT_FALSE(ports.empty())
          << GetParam().label << ": no minimal port at router " << r
          << " toward node " << d;
      for (int p : ports) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, t.radix(r));
        ASSERT_TRUE(t.neighbor(r, p).valid());
      }
      r = t.neighbor(r, ports.front()).router;
      ASSERT_LE(++hops, expect_hops)
          << GetParam().label << ": walk " << s << "->" << d
          << " exceeded the minimal distance";
    }
    EXPECT_EQ(hops, expect_hops) << GetParam().label << ": " << s << "->" << d;
    ports.clear();
    t.minimal_ports(r, d, ports);
    EXPECT_TRUE(ports.empty()) << "local delivery must append nothing";
  }
}

TEST_P(TopologyContract, MinimalPortsAppendsDeterministically) {
  const Topology& t = *topo_;
  std::vector<int> a, b;
  for (const auto& [s, d] : sample_pairs()) {
    const RouterId r = t.node_router(s);
    a.clear();
    a.push_back(-7);  // sentinel: append must preserve existing contents
    t.minimal_ports(r, d, a);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a.front(), -7);
    b.clear();
    t.minimal_ports(r, d, b);
    ASSERT_EQ(a.size(), b.size() + 1);
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i + 1], b[i]) << "two enumerations must agree";
      for (std::size_t j = i + 1; j < b.size(); ++j) {
        EXPECT_NE(b[i], b[j]) << "duplicate minimal port";
      }
    }
  }
}

TEST_P(TopologyContract, MspRingsAppendDeterministicallyAndExhaust) {
  const Topology& t = *topo_;
  const NodeId src = 0;
  const NodeId dst = t.num_nodes() - 1;
  std::vector<MspCandidate> a, b;
  for (int ring = 1; ring <= 4; ++ring) {
    a.clear();
    a.push_back(MspCandidate{kInvalidNode, kInvalidNode});  // sentinel
    t.msp_candidates(src, dst, ring, a);
    EXPECT_EQ(a.front(), (MspCandidate{kInvalidNode, kInvalidNode}));
    b.clear();
    t.msp_candidates(src, dst, ring, b);
    ASSERT_EQ(a.size(), b.size() + 1) << "ring " << ring;
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i + 1], b[i]);
      if (b[i].in1 != kInvalidNode) {
        EXPECT_GE(b[i].in1, 0);
        EXPECT_LT(b[i].in1, t.num_nodes());
      }
    }
  }
  // Every ring beyond num_nodes() is exhausted (the DRB expansion loop's
  // termination guarantee).
  b.clear();
  t.msp_candidates(src, dst, t.num_nodes() + 1, b);
  EXPECT_TRUE(b.empty());
  b.clear();
  t.msp_candidates(src, dst, t.num_nodes() * 2, b);
  EXPECT_TRUE(b.empty());
}

TEST_P(TopologyContract, DeterministicChoiceIsPureAndInRange) {
  const Topology& t = *topo_;
  for (const auto& [s, d] : sample_pairs()) {
    const RouterId r = t.node_router(s);
    for (int n : {1, 2, 3, 5}) {
      const int c = t.deterministic_choice(r, s, d, n);
      EXPECT_GE(c, 0);
      EXPECT_LT(c, n);
      EXPECT_EQ(c, t.deterministic_choice(r, s, d, n)) << "must be pure";
    }
  }
}

TEST_P(TopologyContract, NonminimalIntermediateIsPureAndNeverAnEndpoint) {
  const Topology& t = *topo_;
  for (const auto& [s, d] : sample_pairs()) {
    for (std::uint64_t salt : {0ull, 1ull, 99ull}) {
      const NodeId in = t.nonminimal_intermediate(s, d, salt);
      EXPECT_EQ(in, t.nonminimal_intermediate(s, d, salt)) << "must be pure";
      if (in == kInvalidNode) continue;  // no useful detour exists
      EXPECT_GE(in, 0);
      EXPECT_LT(in, t.num_nodes());
      EXPECT_NE(in, s);
      EXPECT_NE(in, d);
    }
  }
}

// The MeshND rules on degenerate grid shapes: a dimension of extent 1
// leaves both of its ports unconnected, and a 2-wide ring never wraps in
// routing — its two x ports join the same two routers, and the minimal
// port steps toward the lower coordinate over -x.
TEST(DegenerateGrid, OneRowTorusLeavesItsYPortsUnconnected) {
  const Mesh2D t(6, 1, true);
  for (RouterId r = 0; r < t.num_routers(); ++r) {
    EXPECT_TRUE(t.neighbor(r, Mesh2D::kEast).valid()) << "r" << r;
    EXPECT_TRUE(t.neighbor(r, Mesh2D::kWest).valid()) << "r" << r;
    EXPECT_FALSE(t.neighbor(r, Mesh2D::kNorth).valid()) << "r" << r;
    EXPECT_FALSE(t.neighbor(r, Mesh2D::kSouth).valid()) << "r" << r;
  }
  EXPECT_EQ(t.neighbor(t.at(5, 0), Mesh2D::kEast).router, t.at(0, 0));
  EXPECT_EQ(t.distance(t.at(0, 0), t.at(5, 0)), 1);
}

TEST(DegenerateGrid, TwoWideTorusStepsDownOverMinusX) {
  const Mesh2D t(2, 4, true);
  EXPECT_EQ(t.neighbor(t.at(1, 0), Mesh2D::kEast),
            (PortTarget{t.at(0, 0), Mesh2D::kWest}));
  EXPECT_EQ(t.neighbor(t.at(1, 0), Mesh2D::kWest),
            (PortTarget{t.at(0, 0), Mesh2D::kEast}));
  std::vector<int> ports;
  t.minimal_ports(t.at(1, 0), t.at(0, 0), ports);
  EXPECT_EQ(ports, std::vector<int>{Mesh2D::kWest});
  ports.clear();
  t.minimal_ports(t.at(0, 0), t.at(1, 3), ports);
  EXPECT_EQ(ports, (std::vector<int>{Mesh2D::kEast, Mesh2D::kSouth}));
  EXPECT_EQ(t.distance(t.at(0, 0), t.at(1, 3)), 2);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyContract,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<TopoCase>& info) {
                           return std::string(info.param.label);
                         });

}  // namespace
}  // namespace prdrb
