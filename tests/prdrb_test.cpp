#include <gtest/gtest.h>

#include "core/pr_drb.hpp"
#include "test_util.hpp"

namespace prdrb {
namespace {

using test::Harness;

// ---------------------------------------------------------------------------
// FlowSignature

TEST(FlowSignature, CanonicalizesInput) {
  const std::vector<ContendingFlow> flows{{3, 4}, {1, 2}, {3, 4}};
  const auto sig = FlowSignature::from(flows);
  EXPECT_EQ(sig.size(), 2u);
  EXPECT_EQ(sig.flows()[0], (ContendingFlow{1, 2}));
}

TEST(FlowSignature, IdenticalSetsFullySimilar) {
  const std::vector<ContendingFlow> flows{{1, 2}, {3, 4}, {5, 6}};
  const auto a = FlowSignature::from(flows);
  const auto b = FlowSignature::from(flows);
  EXPECT_DOUBLE_EQ(a.similarity(b), 1.0);
}

TEST(FlowSignature, DisjointSetsZeroSimilar) {
  const auto a = FlowSignature::from(std::vector<ContendingFlow>{{1, 2}});
  const auto b = FlowSignature::from(std::vector<ContendingFlow>{{3, 4}});
  EXPECT_DOUBLE_EQ(a.similarity(b), 0.0);
}

TEST(FlowSignature, EmptySignaturesNotSimilar) {
  FlowSignature a;
  FlowSignature b;
  EXPECT_DOUBLE_EQ(a.similarity(b), 0.0);
}

struct SimilarityCase {
  int common;
  int only_a;
  int only_b;
  double expected;
};

// CTest names each case after this value; the default byte dump includes
// the struct's uninitialized padding, which differs between builds.
void PrintTo(const SimilarityCase& c, std::ostream* os) {
  *os << c.common << " common " << c.only_a << " only-a " << c.only_b
      << " only-b";
}

class SignatureSimilarityProperty
    : public ::testing::TestWithParam<SimilarityCase> {};

TEST_P(SignatureSimilarityProperty, JaccardMatchesConstruction) {
  const auto c = GetParam();
  std::vector<ContendingFlow> fa;
  std::vector<ContendingFlow> fb;
  NodeId next = 0;
  for (int i = 0; i < c.common; ++i) {
    fa.push_back({next, next + 1});
    fb.push_back({next, next + 1});
    next += 2;
  }
  for (int i = 0; i < c.only_a; ++i) {
    fa.push_back({next, next + 1});
    next += 2;
  }
  for (int i = 0; i < c.only_b; ++i) {
    fb.push_back({next, next + 1});
    next += 2;
  }
  const auto a = FlowSignature::from(fa);
  const auto b = FlowSignature::from(fb);
  EXPECT_NEAR(a.similarity(b), c.expected, 1e-12);
  EXPECT_NEAR(b.similarity(a), c.expected, 1e-12);  // symmetric
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SignatureSimilarityProperty,
    ::testing::Values(SimilarityCase{4, 1, 0, 0.8},    // the paper's 80 %
                      SimilarityCase{4, 0, 1, 0.8},
                      SimilarityCase{1, 1, 1, 1.0 / 3.0},
                      SimilarityCase{3, 0, 0, 1.0},
                      SimilarityCase{0, 2, 3, 0.0},
                      SimilarityCase{8, 1, 1, 0.8}));

// ---------------------------------------------------------------------------
// SolutionDatabase

std::vector<Msp> two_paths() {
  std::vector<Msp> v;
  v.push_back(Msp{kInvalidNode, kInvalidNode, 5e-6, 3});
  v.push_back(Msp{4, 9, 7e-6, 2});
  return v;
}

TEST(SolutionDatabase, MissWithoutSave) {
  SolutionDatabase db;
  const auto sig = FlowSignature::from(std::vector<ContendingFlow>{{1, 2}});
  EXPECT_EQ(db.lookup(0, 7, sig, 0.8), nullptr);
  EXPECT_EQ(db.lookups(), 1u);
  EXPECT_EQ(db.hits(), 0u);
}

TEST(SolutionDatabase, SaveThenExactLookup) {
  SolutionDatabase db;
  const auto sig =
      FlowSignature::from(std::vector<ContendingFlow>{{1, 2}, {3, 4}});
  db.save(0, 7, sig, two_paths(), 6e-6, 0.8);
  SavedSolution* sol = db.lookup(0, 7, sig, 0.8);
  ASSERT_NE(sol, nullptr);
  EXPECT_EQ(sol->paths.size(), 2u);
  EXPECT_EQ(sol->hits, 1u);
  EXPECT_EQ(db.size(), 1u);
}

TEST(SolutionDatabase, ApproximateMatchAtEightyPercent) {
  SolutionDatabase db;
  std::vector<ContendingFlow> stored;
  for (NodeId i = 0; i < 8; ++i) stored.push_back({i, i + 100});
  db.save(0, 7, FlowSignature::from(stored), two_paths(), 6e-6, 0.8);
  // Query with 8 stored flows + 2 extra: similarity 8/10 = 0.8 -> hit.
  auto query = stored;
  query.push_back({50, 51});
  query.push_back({52, 53});
  EXPECT_NE(db.lookup(0, 7, FlowSignature::from(query), 0.8), nullptr);
  // 8 common out of 11 union -> 0.72 -> miss.
  query.push_back({54, 55});
  EXPECT_EQ(db.lookup(0, 7, FlowSignature::from(query), 0.8), nullptr);
}

TEST(SolutionDatabase, PerPairIsolation) {
  SolutionDatabase db;
  const auto sig = FlowSignature::from(std::vector<ContendingFlow>{{1, 2}});
  db.save(0, 7, sig, two_paths(), 6e-6, 0.8);
  EXPECT_EQ(db.lookup(1, 7, sig, 0.8), nullptr);
  EXPECT_EQ(db.patterns_for(0, 7), 1u);
  EXPECT_EQ(db.patterns_for(1, 7), 0u);
}

TEST(SolutionDatabase, BetterSolutionUpdatesStored) {
  SolutionDatabase db;
  const auto sig = FlowSignature::from(std::vector<ContendingFlow>{{1, 2}});
  db.save(0, 7, sig, two_paths(), 6e-6, 0.8);
  auto better = two_paths();
  better[1].in1 = 5;
  db.save(0, 7, sig, better, 3e-6, 0.8);  // improves -> replaces
  SavedSolution* sol = db.lookup(0, 7, sig, 0.8);
  ASSERT_NE(sol, nullptr);
  EXPECT_DOUBLE_EQ(sol->best_latency, 3e-6);
  EXPECT_EQ(sol->paths[1].in1, 5);
  EXPECT_EQ(db.updates(), 1u);
  EXPECT_EQ(db.size(), 1u);  // updated in place, not duplicated
}

TEST(SolutionDatabase, WorseSolutionDoesNotOverwrite) {
  SolutionDatabase db;
  const auto sig = FlowSignature::from(std::vector<ContendingFlow>{{1, 2}});
  db.save(0, 7, sig, two_paths(), 6e-6, 0.8);
  db.save(0, 7, sig, two_paths(), 9e-6, 0.8);
  SavedSolution* sol = db.lookup(0, 7, sig, 0.8);
  ASSERT_NE(sol, nullptr);
  EXPECT_DOUBLE_EQ(sol->best_latency, 6e-6);
  EXPECT_EQ(db.updates(), 0u);
}

TEST(SolutionDatabase, DistinctSituationsCoexist) {
  SolutionDatabase db;
  db.save(0, 7, FlowSignature::from(std::vector<ContendingFlow>{{1, 2}}),
          two_paths(), 6e-6, 0.8);
  db.save(0, 7, FlowSignature::from(std::vector<ContendingFlow>{{8, 9}}),
          two_paths(), 5e-6, 0.8);
  EXPECT_EQ(db.patterns_for(0, 7), 2u);
  EXPECT_EQ(db.reused_patterns(), 0u);
  db.lookup(0, 7, FlowSignature::from(std::vector<ContendingFlow>{{8, 9}}),
            0.8);
  EXPECT_EQ(db.reused_patterns(), 1u);
  EXPECT_EQ(db.max_reuse(), 1u);
}

TEST(SolutionDatabase, LookupPointerSurvivesLaterSaves) {
  // Regression (ASan-visible): lookup() used to return a pointer into a
  // vector bucket; the next save() to the same pair could reallocate the
  // bucket and dangle the pointer. Deque buckets keep it stable.
  SolutionDatabase db;
  const auto sig = FlowSignature::from(std::vector<ContendingFlow>{{1, 2}});
  db.save(0, 7, sig, two_paths(), 6e-6, 0.8);
  SavedSolution* sol = db.lookup(0, 7, sig, 0.8);
  ASSERT_NE(sol, nullptr);
  const SimTime seen = sol->best_latency;
  // Grow the same (0,7) bucket far past any initial vector capacity.
  for (NodeId i = 0; i < 64; ++i) {
    db.save(0, 7,
            FlowSignature::from(std::vector<ContendingFlow>{{i + 10, i + 90}}),
            two_paths(), 6e-6, 0.8);
  }
  EXPECT_DOUBLE_EQ(sol->best_latency, seen);  // reads through the old ptr
  EXPECT_EQ(sol->hits, 1u);
}

TEST(SolutionDatabase, EmptySignatureNeverStored) {
  SolutionDatabase db;
  db.save(0, 7, FlowSignature{}, two_paths(), 6e-6, 0.8);
  EXPECT_EQ(db.size(), 0u);
}

TEST(SolutionDatabase, EmptySignatureProbesCountedApart) {
  // An empty signature can never match (save() refuses them), so probing
  // with one is a degenerate query. It used to bump lookups_, silently
  // deflating the hit rate the counters report; now it lands in its own
  // counter and leaves the real lookup statistics alone.
  SolutionDatabase db;
  const auto sig = FlowSignature::from(std::vector<ContendingFlow>{{1, 2}});
  db.save(0, 7, sig, two_paths(), 6e-6, 0.8);
  EXPECT_EQ(db.lookup(0, 7, FlowSignature{}, 0.8), nullptr);
  EXPECT_EQ(db.lookup(0, 7, FlowSignature{}, 0.8), nullptr);
  EXPECT_EQ(db.empty_probes(), 2u);
  EXPECT_EQ(db.lookups(), 0u) << "degenerate probes must not skew lookups";
  EXPECT_EQ(db.hits(), 0u);
  ASSERT_NE(db.lookup(0, 7, sig, 0.8), nullptr);
  EXPECT_EQ(db.lookups(), 1u);
  EXPECT_EQ(db.hits(), 1u);
  EXPECT_EQ(db.empty_probes(), 2u);
}

// ---------------------------------------------------------------------------
// PrDrbPolicy zone reactions, driven by synthetic ACKs.

Packet congested_ack(NodeId src, NodeId dst, SimTime e2e,
                     std::vector<ContendingFlow> flows, int msp_index = 0) {
  Packet ack;
  ack.type = PacketType::kAck;
  ack.source = dst;
  ack.destination = src;
  ack.msp_index = msp_index;
  ack.reported_e2e = e2e;
  ack.contending.assign(flows.begin(), flows.end());
  return ack;
}

struct PrDrbFixture : ::testing::Test {
  PrDrbFixture() {
    DrbConfig cfg;
    cfg.threshold_low = 6e-6;
    cfg.threshold_high = 12e-6;
    cfg.max_paths = 4;
    policy = new PrDrbPolicy(cfg, PrDrbConfig{}, 5);
    h = Harness::make<Mesh2D>(NetConfig{}, policy, 8, 8);
  }

  /// Drive one full congestion episode: High (learn paths) then calm down
  /// (H->M saves the solution).
  void run_episode(const std::vector<ContendingFlow>& flows) {
    policy->choose_path(0, 7, 0);
    for (int i = 0; i < 4; ++i) {
      policy->on_ack(0, congested_ack(0, 7, 50e-6, flows), 0);
    }
    // Medium-band ACKs on every path: aggregate lands between thresholds.
    for (int i = 0; i < policy->open_paths(0, 7); ++i) {
      policy->on_ack(0, congested_ack(0, 7, 30e-6, flows, i), 0);
    }
    ASSERT_EQ(policy->find_metapath(0, 7)->zone, Zone::kMedium)
        << "episode must end in the working zone";
  }

  PrDrbPolicy* policy = nullptr;
  Harness h;
};

TEST_F(PrDrbFixture, HighToMediumSavesSolution) {
  run_episode({{1, 7}, {2, 7}});
  EXPECT_EQ(policy->engine().db().size(), 1u);
  EXPECT_EQ(policy->engine().installs(), 0u);  // nothing to reuse yet
}

TEST_F(PrDrbFixture, RepeatedSituationInstallsSavedSolution) {
  const std::vector<ContendingFlow> flows{{1, 7}, {2, 7}};
  run_episode(flows);
  const auto saved_paths = policy->find_metapath(0, 7)->paths.size();

  // Quiet phase: latency collapses, paths close.
  for (int round = 0; round < 40 && policy->open_paths(0, 7) > 1; ++round) {
    for (int i = 0; i < policy->open_paths(0, 7); ++i) {
      policy->on_ack(0, congested_ack(0, 7, 4e-6, {}, i), 0);
    }
  }
  ASSERT_EQ(policy->open_paths(0, 7), 1);

  // The same congestion pattern reappears: one High ACK must restore the
  // whole saved path set at once instead of opening gradually.
  policy->on_ack(0, congested_ack(0, 7, 50e-6, flows), 0);
  EXPECT_EQ(policy->engine().installs(), 1u);
  EXPECT_EQ(policy->find_metapath(0, 7)->paths.size(), saved_paths);
}

TEST_F(PrDrbFixture, UnknownSituationFallsBackToGradualOpening) {
  run_episode({{1, 7}, {2, 7}});
  for (int round = 0; round < 40 && policy->open_paths(0, 7) > 1; ++round) {
    for (int i = 0; i < policy->open_paths(0, 7); ++i) {
      policy->on_ack(0, congested_ack(0, 7, 4e-6, {}, i), 0);
    }
  }
  // A completely different contention pattern: database miss.
  policy->on_ack(0, congested_ack(0, 7, 50e-6, {{30, 40}, {31, 41}}), 0);
  EXPECT_EQ(policy->engine().installs(), 0u);
  EXPECT_EQ(policy->open_paths(0, 7), 2);  // one gradual expansion
}

TEST_F(PrDrbFixture, PredictiveAckTriggersEarlyReaction) {
  run_episode({{1, 7}, {2, 7}});
  for (int round = 0; round < 40 && policy->open_paths(0, 7) > 1; ++round) {
    for (int i = 0; i < policy->open_paths(0, 7); ++i) {
      policy->on_ack(0, congested_ack(0, 7, 4e-6, {}, i), 0);
    }
  }
  // Router-based early notification, before any latency threshold crossing.
  Packet pack;
  pack.type = PacketType::kPredictiveAck;
  pack.source = 7;
  pack.destination = 0;
  pack.contending = {{1, 7}, {2, 7}};
  pack.congested_router = 12;
  policy->on_ack(0, pack, 0);
  EXPECT_EQ(policy->engine().installs(), 1u);
  EXPECT_GT(policy->open_paths(0, 7), 1);
}

TEST(PrFrDrb, WatchdogConsultsDatabase) {
  DrbConfig cfg;
  cfg.threshold_low = 6e-6;
  cfg.threshold_high = 12e-6;
  FrDrbConfig fr;
  fr.watchdog_timeout = 10e-6;
  auto* pol = new PrFrDrbPolicy(cfg, fr, PrDrbConfig{}, 5);
  auto h = Harness::make<Mesh2D>(NetConfig{}, pol, 8, 8);
  // Learn an episode through normal ACKs.
  pol->choose_path(0, 7, 0);
  const std::vector<ContendingFlow> flows{{1, 7}, {2, 7}};
  for (int i = 0; i < 4; ++i) pol->on_ack(0, congested_ack(0, 7, 50e-6, flows), 0);
  for (int i = 0; i < pol->open_paths(0, 7); ++i) {
    pol->on_ack(0, congested_ack(0, 7, 30e-6, flows, i), 0);
  }
  ASSERT_GT(pol->engine().db().size(), 0u);
  // Calm down.
  for (int round = 0; round < 40 && pol->open_paths(0, 7) > 1; ++round) {
    for (int i = 0; i < pol->open_paths(0, 7); ++i) {
      pol->on_ack(0, congested_ack(0, 7, 4e-6, {}, i), 0);
    }
  }
  ASSERT_EQ(pol->open_paths(0, 7), 1);
  // Silent congestion: the watchdog fires and installs the saved solution.
  pol->on_message_sent(0, 7, 42, {}, 0);
  h.sim.run();
  EXPECT_EQ(pol->watchdog_fires(), 1u);
  EXPECT_EQ(pol->engine().installs(), 1u);
  EXPECT_GT(pol->open_paths(0, 7), 1);
}

// ---------------------------------------------------------------------------
// CongestionDetector (CFD/GPA) — integration through the network.

TEST(Cfd, DestinationBasedFillsPredictiveHeader) {
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  auto* probe = new PrDrbPolicy;
  auto h = Harness::make<Mesh2D>(cfg, probe, 4, 4);
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  h.net->set_monitor(&cfd);
  // Two flows fight for router 1's east port.
  for (int i = 0; i < 30; ++i) {
    h.net->send_message(0, 3, 1024);
    h.net->send_message(1, 3, 1024);
  }
  h.sim.run();
  EXPECT_GT(cfd.detections(), 0u);
  EXPECT_EQ(cfd.predictive_acks(), 0u);
  // The contending flows travelled back in regular ACKs and reached the
  // sources' metapaths.
  const Metapath* mp = probe->find_metapath(0, 3);
  ASSERT_NE(mp, nullptr);
  EXPECT_FALSE(mp->recent_flows.empty());
}

TEST(Cfd, RouterBasedInjectsPredictiveAcks) {
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  auto* probe = new PrDrbPolicy(DrbConfig{},
                                PrDrbConfig{.similarity = 0.8,
                                            .notification =
                                                NotificationMode::kRouterBased});
  auto h = Harness::make<Mesh2D>(cfg, probe, 4, 4);
  CongestionDetector cfd(NotificationMode::kRouterBased);
  h.net->set_monitor(&cfd);
  for (int i = 0; i < 30; ++i) {
    h.net->send_message(0, 3, 1024);
    h.net->send_message(1, 3, 1024);
  }
  h.sim.run();
  EXPECT_GT(cfd.detections(), 0u);
  EXPECT_GT(cfd.predictive_acks(), 0u);
}

TEST(Cfd, BelowThresholdStaysQuiet) {
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1.0;  // unreachable
  auto* probe = new PrDrbPolicy;
  auto h = Harness::make<Mesh2D>(cfg, probe, 4, 4);
  CongestionDetector cfd(NotificationMode::kRouterBased);
  h.net->set_monitor(&cfd);
  for (int i = 0; i < 10; ++i) h.net->send_message(0, 3, 1024);
  h.sim.run();
  EXPECT_EQ(cfd.detections(), 0u);
  EXPECT_EQ(cfd.predictive_acks(), 0u);
}

}  // namespace
}  // namespace prdrb
