#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "net/dragonfly.hpp"
#include "net/mesh2d.hpp"
#include "routing/adaptive.hpp"
#include "routing/drb.hpp"
#include "routing/fr_drb.hpp"
#include "routing/oblivious.hpp"
#include "routing/ugal.hpp"
#include "test_util.hpp"

namespace prdrb {
namespace {

using test::Harness;

Packet make_packet(NodeId src, NodeId dst) {
  Packet p;
  p.source = src;
  p.destination = dst;
  p.size_bytes = 1024;
  return p;
}

TEST(Zones, ClassificationAgainstThresholds) {
  EXPECT_EQ(classify_zone(1e-6, 5e-6, 10e-6), Zone::kLow);
  EXPECT_EQ(classify_zone(7e-6, 5e-6, 10e-6), Zone::kMedium);
  EXPECT_EQ(classify_zone(11e-6, 5e-6, 10e-6), Zone::kHigh);
  EXPECT_EQ(classify_zone(5e-6, 5e-6, 10e-6), Zone::kMedium);   // inclusive
  EXPECT_EQ(classify_zone(10e-6, 5e-6, 10e-6), Zone::kMedium);  // inclusive
  EXPECT_STREQ(zone_name(Zone::kHigh), "high");
}

TEST(Metapath, MpLatencyFollowsEq34) {
  Metapath mp;
  mp.paths.push_back(Msp{kInvalidNode, kInvalidNode, 10e-6, 1});
  mp.update_mp_latency();
  EXPECT_DOUBLE_EQ(mp.mp_latency, 10e-6);
  mp.paths.push_back(Msp{1, 2, 10e-6, 1});
  mp.update_mp_latency();
  // Two equal paths: aggregate halves (capacity doubles).
  EXPECT_DOUBLE_EQ(mp.mp_latency, 5e-6);
}

TEST(Metapath, NoteFlowsDedupsAndBounds) {
  Metapath mp;
  const ContendingFlow a[] = {{1, 2}, {3, 4}};
  const ContendingFlow b[] = {{1, 2}, {5, 6}};
  const ContendingFlow c[] = {{7, 8}};
  mp.note_flows(a, 3);
  mp.note_flows(b, 3);
  EXPECT_EQ(mp.recent_flows.size(), 3u);
  // Most recent first.
  EXPECT_EQ(mp.recent_flows.front(), (ContendingFlow{5, 6}));
  mp.note_flows(c, 3);
  EXPECT_EQ(mp.recent_flows.size(), 3u);  // capped
}

TEST(Deterministic, SamePairAlwaysSamePort) {
  auto* pol = new DeterministicPolicy;
  auto h = Harness::make<KAryNTree>(NetConfig{}, pol, 4, 3);
  const Packet p = make_packet(3, 60);
  std::vector<int> cands{4, 5, 6, 7};
  const int first = pol->select_port(0, p, cands);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(pol->select_port(0, p, cands), first);
}

TEST(Deterministic, DifferentDestinationsSpreadOverUpPorts) {
  auto* pol = new DeterministicPolicy;
  auto h = Harness::make<KAryNTree>(NetConfig{}, pol, 4, 3);
  std::vector<int> cands{4, 5, 6, 7};
  std::set<int> used;
  for (NodeId d = 0; d < 64; d += 3) {
    used.insert(pol->select_port(0, make_packet(0, d), cands));
  }
  EXPECT_GT(used.size(), 1u);
}

TEST(Cyclic, StableWithinPeriodRotatesAcrossPeriods) {
  auto* pol = new CyclicPolicy(1e-3);
  auto h = Harness::make<Mesh2D>(NetConfig{}, pol, 4, 4);
  const Packet p = make_packet(0, 15);
  std::vector<int> cands{0, 2};
  const int first = pol->select_port(5, p, cands);
  EXPECT_EQ(pol->select_port(5, p, cands), first);  // same period
  int later = -1;
  h.sim.schedule_in(1.5e-3, [&] { later = pol->select_port(5, p, cands); });
  h.sim.run();
  EXPECT_NE(later, first);  // next period: rotated
  EXPECT_TRUE(later == 0 || later == 2);
}

TEST(Random, StaysWithinCandidates) {
  auto* pol = new RandomPolicy(3);
  auto h = Harness::make<Mesh2D>(NetConfig{}, pol, 4, 4);
  const Packet p = make_packet(0, 15);
  std::vector<int> cands{0, 2};
  std::set<int> seen;
  for (int i = 0; i < 64; ++i) seen.insert(pol->select_port(5, p, cands));
  EXPECT_EQ(seen, (std::set<int>{0, 2}));
}

TEST(Adaptive, PicksLeastOccupiedPort) {
  auto* pol = new AdaptivePolicy;
  auto h = Harness::make<Mesh2D>(NetConfig{}, pol, 4, 4);
  // Saturate the east port of router 0 by sending several packets 0->3;
  // while they queue, a packet to (1,1) should prefer the empty north port.
  for (int i = 0; i < 8; ++i) h.net->send_message(0, 3, 1024);
  h.sim.run_until(6e-6);  // mid-flight: queue at router 0 east port is busy
  std::vector<int> cands{Mesh2D::kEast, Mesh2D::kNorth};
  const Packet p = make_packet(0, 5);
  EXPECT_EQ(pol->select_port(0, p, cands), Mesh2D::kNorth);
  h.sim.run();
}

// ---------------------------------------------------------------------------
// DRB mechanics, driven by synthetic ACKs.

Packet make_ack(NodeId src, NodeId dst, SimTime e2e, int msp_index) {
  // ACK as it arrives back at `src` for a message it sent to `dst`.
  Packet ack;
  ack.type = PacketType::kAck;
  ack.source = dst;
  ack.destination = src;
  ack.msp_index = msp_index;
  ack.reported_e2e = e2e;
  ack.reported_latency = e2e / 2;
  return ack;
}

struct DrbFixture : ::testing::Test {
  DrbFixture() {
    DrbConfig cfg;
    cfg.threshold_low = 6e-6;
    cfg.threshold_high = 12e-6;
    cfg.max_paths = 4;
    policy = new DrbPolicy(cfg, 5);
    h = Harness::make<Mesh2D>(NetConfig{}, policy, 8, 8);
  }
  DrbPolicy* policy = nullptr;
  Harness h;
};

TEST_F(DrbFixture, StartsWithDirectPathOnly) {
  const PathChoice pc = policy->choose_path(0, 7, 0);
  EXPECT_TRUE(pc.direct());
  EXPECT_EQ(policy->open_paths(0, 7), 1);
}

TEST_F(DrbFixture, HighLatencyAcksOpenPathsGradually) {
  policy->choose_path(0, 7, 0);
  // Each congested ACK reports on the newest path, which both keeps the
  // aggregate in the High zone and completes that path's evaluation — so
  // DRB opens exactly one further path per evaluated ACK (§4.5.1).
  std::vector<int> trajectory;
  for (int i = 0; i < 8; ++i) {
    policy->on_ack(0, make_ack(0, 7, 50e-6, policy->open_paths(0, 7) - 1), 0);
    trajectory.push_back(policy->open_paths(0, 7));
  }
  EXPECT_EQ(trajectory[0], 2);  // one path at a time
  EXPECT_EQ(trajectory[1], 3);
  EXPECT_EQ(trajectory[2], 4);
  EXPECT_EQ(policy->open_paths(0, 7), 4);  // capped at max_paths
  EXPECT_GE(policy->total_expansions(), 3u);
}

TEST_F(DrbFixture, ExpansionWaitsForEvaluation) {
  policy->choose_path(0, 7, 0);
  policy->on_ack(0, make_ack(0, 7, 50e-6, 0), 0);
  ASSERT_EQ(policy->open_paths(0, 7), 2);
  // Further congested ACKs on the *old* path do not trigger more openings
  // until the new path's effect is evaluated (quorum not reached).
  for (int i = 0; i < DrbPolicy::kEvaluationQuorum - 2; ++i) {
    policy->on_ack(0, make_ack(0, 7, 50e-6, 0), 0);
    EXPECT_EQ(policy->open_paths(0, 7), 2);
  }
  // Quorum reached: evaluation complete, next High ACK expands again.
  policy->on_ack(0, make_ack(0, 7, 50e-6, 0), 0);
  policy->on_ack(0, make_ack(0, 7, 50e-6, 0), 0);
  EXPECT_EQ(policy->open_paths(0, 7), 3);
}

TEST_F(DrbFixture, LowLatencyAcksClosePaths) {
  policy->choose_path(0, 7, 0);
  for (int i = 0; i < 4; ++i) {
    policy->on_ack(0, make_ack(0, 7, 50e-6, policy->open_paths(0, 7) - 1), 0);
  }
  ASSERT_EQ(policy->open_paths(0, 7), 4);
  // Fast ACKs on every path drag the estimates down; aggregate falls below
  // Threshold_Low and DRB closes alternatives one at a time.
  for (int round = 0; round < 40 && policy->open_paths(0, 7) > 1; ++round) {
    for (int i = 0; i < policy->open_paths(0, 7); ++i) {
      policy->on_ack(0, make_ack(0, 7, 4e-6, i), 0);
    }
  }
  EXPECT_EQ(policy->open_paths(0, 7), 1);
  EXPECT_GT(policy->total_contractions(), 0u);
}

TEST_F(DrbFixture, DirectPathNeverClosed) {
  policy->choose_path(0, 7, 0);
  for (int i = 0; i < 10; ++i) policy->on_ack(0, make_ack(0, 7, 1e-6, 0), 0);
  const Metapath* mp = policy->find_metapath(0, 7);
  ASSERT_NE(mp, nullptr);
  ASSERT_GE(mp->paths.size(), 1u);
  EXPECT_TRUE(mp->paths[0].direct());
}

TEST_F(DrbFixture, PathSelectionFavoursFasterPaths) {
  policy->choose_path(0, 7, 0);
  for (int i = 0; i < 1; ++i) policy->on_ack(0, make_ack(0, 7, 50e-6, 0), 0);
  ASSERT_EQ(policy->open_paths(0, 7), 2);
  // Make path 0 fast and path 1 slow, keeping the aggregate in the medium
  // band so the path count stays put.
  for (int i = 0; i < 30; ++i) {
    policy->on_ack(0, make_ack(0, 7, 9e-6, 0), 0);
    policy->on_ack(0, make_ack(0, 7, 60e-6, 1), 0);
  }
  int fast = 0;
  int slow = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto idx = policy->choose_path(0, 7, 0).msp_index;
    if (idx == 0) ++fast;
    if (idx == 1) ++slow;
  }
  // Eq. 3.6 weights by inverse latency: the 9 us path must draw several
  // times the traffic of the 60 us path.
  EXPECT_GT(fast, 3 * slow);
}

TEST_F(DrbFixture, EwmaSmoothsLatencyEstimates) {
  policy->choose_path(0, 7, 0);
  policy->on_ack(0, make_ack(0, 7, 10e-6, 0), 0);
  const Metapath* mp = policy->find_metapath(0, 7);
  ASSERT_NE(mp, nullptr);
  EXPECT_DOUBLE_EQ(mp->paths[0].latency, 10e-6);  // first sample taken as-is
  policy->on_ack(0, make_ack(0, 7, 20e-6, 0), 0);
  EXPECT_GT(mp->paths[0].latency, 10e-6);
  EXPECT_LT(mp->paths[0].latency, 20e-6);
}

TEST_F(DrbFixture, AckFlowsAreAccumulated) {
  policy->choose_path(0, 7, 0);
  Packet ack = make_ack(0, 7, 8e-6, 0);
  ack.contending = {{1, 7}, {2, 7}};
  policy->on_ack(0, ack, 0);
  const Metapath* mp = policy->find_metapath(0, 7);
  ASSERT_NE(mp, nullptr);
  EXPECT_EQ(mp->recent_flows.size(), 2u);
}

TEST_F(DrbFixture, StaleMspIndexIgnored) {
  policy->choose_path(0, 7, 0);
  policy->on_ack(0, make_ack(0, 7, 8e-6, 7), 0);  // index out of range
  EXPECT_EQ(policy->open_paths(0, 7), 1);
}

TEST_F(DrbFixture, ReExpansionAfterShrinkIsAllocationFree) {
  policy->choose_path(0, 7, 0);
  const auto expand_all = [&] {
    for (int i = 0; i < 8 && policy->open_paths(0, 7) < 4; ++i) {
      policy->on_ack(0, make_ack(0, 7, 50e-6, policy->open_paths(0, 7) - 1),
                     0);
    }
  };
  const auto shrink_all = [&] {
    for (int round = 0; round < 40 && policy->open_paths(0, 7) > 1; ++round) {
      for (int i = 0; i < policy->open_paths(0, 7); ++i) {
        policy->on_ack(0, make_ack(0, 7, 4e-6, i), 0);
      }
    }
  };
  expand_all();
  ASSERT_EQ(policy->open_paths(0, 7), 4);
  shrink_all();
  ASSERT_EQ(policy->open_paths(0, 7), 1);
  // Full contraction rewound the candidate cursor but kept every buffer's
  // capacity: paths covers max_paths, the metapath's pending ring buffer
  // covers the largest ring the append-style msp_candidates walked, the
  // trend window is full. The whole next congestion episode must therefore
  // run without touching the heap.
  test::AllocationScope scope;
  expand_all();
  EXPECT_EQ(policy->open_paths(0, 7), 4);
  EXPECT_EQ(scope.count(), 0u) << "DRB re-expansion must not allocate";
}

TEST(PathEnumeration, WarmAppendBuffersAreAllocationFree) {
  struct Case {
    std::unique_ptr<Topology> topo;
    NodeId src;
    NodeId dst;
    int max_ring;  // past the last non-empty ring
  };
  Case cases[] = {
      {std::make_unique<Dragonfly>(4, 9, 2, 4), 5, 100, 9},
      {std::make_unique<Mesh2D>(32, 32), 33, 700, 64},
      {std::make_unique<Mesh2D>(8, 8, true), 9, 45, 10},
  };
  for (const Case& c : cases) {
    const Topology& t = *c.topo;
    std::vector<int> ports;
    std::vector<MspCandidate> cands;
    // Warm pass without clearing sizes each buffer past any single-ring or
    // single-router enumeration below.
    for (int ring = 1; ring <= c.max_ring; ++ring) {
      t.msp_candidates(c.src, c.dst, ring, cands);
    }
    for (RouterId r = 0; r < t.num_routers(); ++r) {
      t.minimal_ports(r, c.dst, ports);
    }
    test::AllocationScope scope;
    for (int ring = 1; ring <= c.max_ring; ++ring) {
      cands.clear();
      t.msp_candidates(c.src, c.dst, ring, cands);
    }
    for (RouterId r = 0; r < t.num_routers(); ++r) {
      ports.clear();
      t.minimal_ports(r, c.dst, ports);
    }
    EXPECT_EQ(scope.count(), 0u)
        << t.name() << ": append-style enumeration must not allocate";
  }
}

TEST(Ugal, InjectionDecisionIsAllocationFree) {
  auto* pol = new UgalPolicy;
  auto h = Harness::make<Dragonfly>(NetConfig{}, pol, 4, 9, 2, 4);
  pol->choose_path(0, 100, 0);  // warm the first-hop queue scratch
  test::AllocationScope scope;
  for (NodeId s = 0; s < 36; ++s) {
    const PathChoice pc = pol->choose_path(s, (s + 16) % 144, 0);
    (void)pc;
  }
  EXPECT_EQ(scope.count(), 0u) << "UGAL's injection decision must not allocate";
}

TEST(FrDrb, WatchdogOpensPathWithoutAck) {
  DrbConfig cfg;
  FrDrbConfig fr;
  fr.watchdog_timeout = 10e-6;
  auto* pol = new FrDrbPolicy(cfg, fr, 5);
  auto h = Harness::make<Mesh2D>(NetConfig{}, pol, 8, 8);
  // Simulate a sent message whose ACK never arrives.
  pol->choose_path(0, 7, 0);
  pol->on_message_sent(0, 7, 77, {}, 0);
  h.sim.run();
  EXPECT_EQ(pol->watchdog_fires(), 1u);
  EXPECT_EQ(pol->open_paths(0, 7), 2);
}

TEST(FrDrb, AckCancelsWatchdog) {
  DrbConfig cfg;
  FrDrbConfig fr;
  fr.watchdog_timeout = 10e-6;
  auto* pol = new FrDrbPolicy(cfg, fr, 5);
  auto h = Harness::make<Mesh2D>(NetConfig{}, pol, 8, 8);
  pol->choose_path(0, 7, 0);
  pol->on_message_sent(0, 7, 77, {}, 0);
  h.sim.schedule_in(2e-6, [&] {
    Packet ack = make_ack(0, 7, 4e-6, 0);
    ack.acked_message_id = 77;
    pol->on_ack(0, ack, h.sim.now());
  });
  h.sim.run();
  EXPECT_EQ(pol->watchdog_fires(), 0u);
  EXPECT_EQ(pol->open_paths(0, 7), 1);
}

}  // namespace
}  // namespace prdrb
