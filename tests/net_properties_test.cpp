// Property-style tests of the network timing model and the CFD selection
// logic, parameterized over distances, sizes and configurations.
#include <memory>

#include <gtest/gtest.h>

#include "core/cfd.hpp"
#include "routing/drb.hpp"
#include "routing/oblivious.hpp"
#include "test_util.hpp"

namespace prdrb {
namespace {

using test::Harness;

// ---------------------------------------------------------------------------
// VCT latency model: e2e = serialization + wire + hops*(router+wire) +
// final router delay, for any hop count and packet size (uncontended).

struct TimingCase {
  int src_x;
  int dst_x;
  std::int32_t bytes;
};

class VctTimingProperty : public ::testing::TestWithParam<TimingCase> {};

TEST_P(VctTimingProperty, UncontendedLatencyMatchesModel) {
  const auto c = GetParam();
  NetConfig cfg;
  cfg.packet_bytes = c.bytes;
  auto h = Harness::make<Mesh2D>(cfg, new DeterministicPolicy, 8, 1);
  h.net->send_message(c.src_x, c.dst_x, c.bytes);
  h.sim.run();
  ASSERT_EQ(h.metrics->packets_delivered(), 1u);
  const int hops = std::abs(c.dst_x - c.src_x) ;
  const double expected = cfg.serialization_time(c.bytes) + cfg.wire_delay_s +
                          hops * (cfg.router_delay_s + cfg.wire_delay_s) +
                          cfg.router_delay_s;
  EXPECT_NEAR(h.metrics->packet_latency().overall_mean(), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VctTimingProperty,
    ::testing::Values(TimingCase{0, 1, 1024}, TimingCase{0, 7, 1024},
                      TimingCase{0, 3, 256}, TimingCase{7, 0, 4096},
                      TimingCase{2, 5, 64}));

TEST(VctTiming, CutThroughBeatsStoreAndForwardScaling) {
  // Cut-through: latency grows by (router+wire) per hop, NOT by a full
  // serialization per hop.
  NetConfig cfg;
  auto run = [&](NodeId dst) {
    auto h = Harness::make<Mesh2D>(cfg, new DeterministicPolicy, 8, 1);
    h.net->send_message(0, dst, 1024);
    h.sim.run();
    return h.metrics->packet_latency().overall_mean();
  };
  const double one = run(1);
  const double seven = run(7);
  const double per_hop = (seven - one) / 6.0;
  EXPECT_NEAR(per_hop, cfg.router_delay_s + cfg.wire_delay_s, 1e-12);
  EXPECT_LT(per_hop, cfg.serialization_time(1024) / 4);
}

TEST(VctTiming, BandwidthScalesSerialization) {
  NetConfig fast;
  fast.link_bandwidth_bps = 4e9;
  NetConfig slow;
  slow.link_bandwidth_bps = 1e9;
  auto run = [](NetConfig cfg) {
    auto h = Harness::make<Mesh2D>(cfg, new DeterministicPolicy, 4, 1);
    h.net->send_message(0, 1, 1024);
    h.sim.run();
    return h.metrics->packet_latency().overall_mean();
  };
  EXPECT_LT(run(fast), run(slow));
  // Serialization dominates; fixed wire/router delays pull the ratio a bit
  // below the 4x bandwidth ratio.
  EXPECT_NEAR(run(slow) / run(fast), 4.0, 0.25);
}

// ---------------------------------------------------------------------------
// ACK generation policy

TEST(AckGating, ObliviousPoliciesGenerateNoAcks) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 4, 4);
  for (int i = 0; i < 10; ++i) h.net->send_message(0, 5, 1024);
  h.sim.run();
  // 10 data packets only; an ACK per message would double the count at the
  // destination NIC's receive counter? ACKs are consumed by on_ack, not
  // counted as received data — check the *source* received nothing.
  EXPECT_EQ(h.net->nic(0).packets_received, 0u);
}

TEST(AckGating, AcksCanBeDisabledGlobally) {
  NetConfig cfg;
  cfg.acks_enabled = false;
  auto* drb = new DrbPolicy;
  auto h = Harness::make<Mesh2D>(cfg, drb, 4, 4);
  for (int i = 0; i < 10; ++i) h.net->send_message(0, 5, 1024);
  h.sim.run();
  const Metapath* mp = drb->find_metapath(0, 5);
  ASSERT_NE(mp, nullptr);
  EXPECT_EQ(mp->acks_received, 0u);
}

TEST(AckGating, DrbReceivesOneAckPerMessage) {
  auto* drb = new DrbPolicy;
  auto h = Harness::make<Mesh2D>(NetConfig{}, drb, 4, 4);
  for (int i = 0; i < 10; ++i) h.net->send_message(0, 5, 1024);
  h.net->send_message(0, 5, 5000);  // 5 fragments, still one ACK
  h.sim.run();
  const Metapath* mp = drb->find_metapath(0, 5);
  ASSERT_NE(mp, nullptr);
  EXPECT_EQ(mp->acks_received, 11u);
}

// ---------------------------------------------------------------------------
// CongestionDetector selection logic

class RecordingMonitor final : public RouterMonitor {
 public:
  void on_transmit(Network&, RouterId, int, Packet& head, SimTime,
                   const std::deque<Packet*>&) override {
    last_contending.assign(head.contending.begin(), head.contending.end());
  }
  std::vector<ContendingFlow> last_contending;
};

TEST(Cfd, TopContributorsSelectedFirst) {
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  // Build a synthetic congested queue: flow (1,9) has 3 packets, (2,9) one.
  auto mk = [](NodeId s, NodeId d, std::int32_t bytes) {
    Packet p;
    p.source = s;
    p.destination = d;
    p.size_bytes = bytes;
    return p;
  };
  std::vector<Packet> backing;
  backing.reserve(3);
  backing.push_back(mk(1, 9, 1024));
  backing.push_back(mk(2, 9, 1024));
  backing.push_back(mk(1, 9, 1024));
  std::deque<Packet*> queue;
  for (Packet& p : backing) queue.push_back(&p);

  Simulator sim;
  Mesh2D mesh(4, 4);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);

  Packet head = mk(1, 9, 1024);
  cfd.on_transmit(net, 0, 0, head, /*wait=*/5e-6, queue);
  ASSERT_GE(head.contending.size(), 2u);
  EXPECT_EQ(head.contending[0], (ContendingFlow{1, 9}));  // biggest share
  EXPECT_EQ(head.congested_router, 0);
  EXPECT_EQ(cfd.detections(), 1u);
}

TEST(Cfd, AcksAreNeverMonitored) {
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  Simulator sim;
  Mesh2D mesh(4, 4);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-9;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);
  Packet ack;
  ack.type = PacketType::kAck;
  ack.source = 1;
  ack.destination = 2;
  ack.size_bytes = 64;
  std::deque<Packet*> queue;
  cfd.on_transmit(net, 0, 0, ack, 1e-3, queue);
  EXPECT_EQ(cfd.detections(), 0u);
  EXPECT_TRUE(ack.contending.empty());
}

TEST(Cfd, RouterBasedCooldownLimitsAckStorm) {
  CongestionDetector cfd(NotificationMode::kRouterBased);
  cfd.set_notify_cooldown(1.0);  // effectively once per simulation
  Simulator sim;
  Mesh2D mesh(4, 4);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);
  std::deque<Packet*> queue;
  Packet head;
  head.source = 1;
  head.destination = 9;
  head.size_bytes = 1024;
  for (int i = 0; i < 5; ++i) {
    Packet h2 = head;
    cfd.on_transmit(net, 0, 0, h2, 5e-6, queue);
  }
  EXPECT_EQ(cfd.detections(), 5u);
  EXPECT_EQ(cfd.predictive_acks(), 1u);  // cooldown suppressed the rest
  sim.run();
}

TEST(Cfd, PredictiveBitSetOnRouterBasedNotification) {
  CongestionDetector cfd(NotificationMode::kRouterBased);
  Simulator sim;
  Mesh2D mesh(4, 4);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);
  std::deque<Packet*> queue;
  Packet head;
  head.source = 1;
  head.destination = 9;
  head.size_bytes = 1024;
  cfd.on_transmit(net, 0, 0, head, 5e-6, queue);
  EXPECT_TRUE(head.predictive_bit);
  sim.run();
}

TEST(Cfd, MaxContendingFlowsRespected) {
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  Simulator sim;
  Mesh2D mesh(8, 8);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  cfg.max_contending_flows = 3;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);
  std::vector<Packet> backing;
  backing.reserve(10);
  for (NodeId s = 0; s < 10; ++s) {
    Packet p;
    p.source = s;
    p.destination = 63;
    p.size_bytes = 1024;
    backing.push_back(p);
  }
  std::deque<Packet*> queue;
  for (Packet& p : backing) queue.push_back(&p);
  Packet head;
  head.source = 20;
  head.destination = 63;
  head.size_bytes = 1024;
  cfd.on_transmit(net, 0, 0, head, 5e-6, queue);
  EXPECT_LE(head.contending.size(), 3u);
}

// A destination-based detector on an 8x8 mesh that flags every departure,
// and the queue it sees: one packet per (source, bytes) entry, all bound
// for node 63.
struct CfdRig {
  explicit CfdRig(int max_flows) {
    cfg.router_contention_threshold_s = 1e-6;
    cfg.max_contending_flows = max_flows;
    net = std::make_unique<Network>(sim, mesh, cfg, pol);
  }

  void fill(std::initializer_list<std::pair<NodeId, std::int32_t>> packets) {
    backing.clear();
    backing.reserve(packets.size());
    for (const auto& [src, bytes] : packets) {
      Packet p;
      p.source = src;
      p.destination = 63;
      p.size_bytes = bytes;
      backing.push_back(p);
    }
    queue.clear();
    for (Packet& p : backing) queue.push_back(&p);
  }

  /// The contending flows a head from `src` carries after one detection,
  /// as source ids.
  std::vector<NodeId> detect(NodeId src) {
    Packet head;
    head.source = src;
    head.destination = 63;
    head.size_bytes = 1024;
    cfd.on_transmit(*net, 0, 0, head, 5e-6, queue);
    std::vector<NodeId> sources;
    for (const ContendingFlow& f : head.contending) sources.push_back(f.src);
    return sources;
  }

  Simulator sim;
  Mesh2D mesh{8, 8};
  NetConfig cfg;
  DeterministicPolicy pol;
  std::unique_ptr<Network> net;
  CongestionDetector cfd{NotificationMode::kDestinationBased};
  std::vector<Packet> backing;
  std::deque<Packet*> queue;
};

TEST(Cfd, EqualSharesKeepFirstAppearanceHeadFirst) {
  // Below the cap: every flow is reported, equal shares in the order they
  // first appear, the head's own flow first.
  CfdRig below(8);
  below.fill({{3, 1024}, {1, 1024}, {2, 1024}});
  EXPECT_EQ(below.detect(20), (std::vector<NodeId>{20, 3, 1, 2}));
  // Larger shares go first; within each size the earlier appearance wins.
  below.fill({{3, 1024}, {1, 2048}, {2, 1024}, {3, 1024}});
  EXPECT_EQ(below.detect(20), (std::vector<NodeId>{3, 1, 20, 2}));

  // Above the cap: the same order, cut to max_contending_flows.
  CfdRig above(3);
  above.fill({{5, 1024}, {4, 1024}, {9, 1024}, {8, 1024}, {7, 1024}});
  EXPECT_EQ(above.detect(20), (std::vector<NodeId>{20, 5, 4}));
  above.fill({{5, 1024}, {4, 1024}, {9, 1024}, {8, 512}, {8, 512},
              {7, 2048}, {4, 1024}});
  EXPECT_EQ(above.detect(20), (std::vector<NodeId>{4, 7, 20}));
}

TEST(Cfd, WarmDestinationBasedDetectionIsAllocationFree) {
  // Twelve packets from six flows: the detector's scratch is sized by the
  // first detection, so every later one allocates nothing.
  CfdRig rig(8);
  rig.fill({{1, 1024}, {2, 512}, {3, 1024}, {1, 1024}, {4, 256},
            {5, 1024}, {2, 512}, {6, 2048}, {3, 1024}, {1, 512},
            {5, 1024}, {4, 256}});
  Packet heads[4];
  for (Packet& h : heads) {
    h.source = 20;
    h.destination = 63;
    h.size_bytes = 1024;
  }
  Packet warm = heads[0];
  rig.cfd.on_transmit(*rig.net, 0, 0, warm, 5e-6, rig.queue);
  test::AllocationScope scope;
  for (Packet& h : heads) {
    rig.cfd.on_transmit(*rig.net, 0, 0, h, 5e-6, rig.queue);
  }
  EXPECT_EQ(scope.count(), 0u) << "a warm CFD detection must not allocate";
  EXPECT_EQ(heads[3].contending.size(), 7u);
  EXPECT_EQ(rig.cfd.detections(), 5u);
}

// ---------------------------------------------------------------------------
// Allocation-freedom of the hot path (operator-new interposer, test_util.hpp)

TEST(Allocations, EventQueueSteadyStateIsAllocationFree) {
  // After warm-up, schedule+pop with an inline-sized capture must never
  // touch the allocator: actions live in recycled slots, heap entries in a
  // vector that has reached its high-water capacity.
  EventQueue q;
  std::uint64_t sink = 0;
  for (int i = 0; i < 4096; ++i) {
    q.schedule(static_cast<SimTime>(i), [&sink, i] {
      sink += static_cast<std::uint64_t>(i);
    });
  }
  while (!q.empty()) q.pop().action();

  test::AllocationScope scope;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 4; ++i) {
      q.schedule(static_cast<SimTime>(round * 4 + i), [&sink, i] {
        sink += static_cast<std::uint64_t>(i);
      });
    }
    while (!q.empty()) q.pop().action();
  }
  EXPECT_EQ(scope.count(), 0u) << "steady-state schedule/pop allocated";
  EXPECT_GT(sink, 0u);
}

TEST(Allocations, EventQueueLaneSteadyStateIsAllocationFree) {
  // The lane twin: schedule_in on five constant pipeline delays. Warm-up
  // grows each lane's ring to its high-water mark; after it, schedule+pop
  // never touches the allocator.
  constexpr SimTime kDelays[] = {0.0, 20e-9, 40e-9, 40e-9 + 4.096e-6,
                                 4.096e-6};
  EventQueue q;
  std::uint64_t sink = 0;
  SimTime now = 0;
  auto drain = [&] {
    while (!q.empty()) {
      EventQueue::Fired fired = q.pop();
      now = fired.time;
      fired.action();
    }
  };
  for (int i = 0; i < 4096; ++i) {
    q.schedule_in(now, kDelays[i % 5], [&sink, i] {
      sink += static_cast<std::uint64_t>(i);
    });
  }
  drain();

  test::AllocationScope scope;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 20; ++i) {
      q.schedule_in(now, kDelays[i % 5], [&sink, i] {
        sink += static_cast<std::uint64_t>(i);
      });
    }
    drain();
  }
  EXPECT_EQ(scope.count(), 0u) << "steady-state lane schedule/pop allocated";
  EXPECT_GT(sink, 0u);
}

TEST(Allocations, NetworkSteadyStateHopsAreAllocationFree) {
  // Drive the same workload twice through one network. The second pass
  // reuses pooled packets, recycled event slots and warmed queues, so the
  // only remaining allocations are per-message bookkeeping (rx-reassembly
  // map nodes and ACK metapath stats) — bounded by messages, not by hops
  // or events.
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
  run_pass();  // warm-up: pool fills, queues and heap reach steady capacity

  const std::uint64_t events_before = h.sim.events_executed();
  test::AllocationScope scope;
  run_pass();
  const std::uint64_t events = h.sim.events_executed() - events_before;
  ASSERT_GT(events, static_cast<std::uint64_t>(4 * kMessages));
  // Per-hop/per-event cost must be nil: allow only the per-message nodes.
  EXPECT_LT(scope.count(), static_cast<std::uint64_t>(4 * kMessages))
      << "events in pass: " << events;
  EXPECT_EQ(h.net->packet_pool().outstanding(), 0u);
}

TEST(Allocations, CreditStallWakesDoNotAllocate) {
  // An incast into node 5 of a 4x4 XY mesh stalls ports and NICs on full
  // buffers. Each wake-up must reuse the waiter list's capacity, so the
  // third pass allocates only per-message bookkeeping: the same count with
  // tight buffers (many stalls) as with roomy ones (fewer stalls).
  struct Pass {
    std::uint64_t stalls = 0;
    std::uint64_t allocations = 0;
  };
  auto third_pass = [](std::int64_t buffer_bytes) {
    NetConfig cfg;
    cfg.buffer_bytes = buffer_bytes;
    auto h = Harness::make<Mesh2D>(cfg, new DeterministicPolicy, 4, 4);
    auto stalls = [&h] {
      std::uint64_t n = 0;
      for (RouterId r = 0; r < h.net->num_routers(); ++r) {
        for (const OutputPort& port : h.net->router(r).ports) {
          n += port.credit_stalls;
        }
      }
      for (NodeId node = 0; node < h.net->num_nodes(); ++node) {
        n += h.net->nic(node).inject_stalls;
      }
      return n;
    };
    auto run_pass = [&h] {
      for (int i = 0; i < 375; ++i) {
        NodeId src = static_cast<NodeId>(i % 15);
        if (src >= 5) ++src;  // every node but the target
        h.net->send_message(src, 5, 1024);
      }
      h.sim.run();
    };
    run_pass();
    run_pass();
    const std::uint64_t stalls_before = stalls();
    Pass pass;
    {
      test::AllocationScope scope;
      run_pass();
      pass.allocations = scope.count();
    }
    pass.stalls = stalls() - stalls_before;
    EXPECT_EQ(h.net->packet_pool().outstanding(), 0u);
    return pass;
  };
  const Pass tight = third_pass(16 * 1024);
  const Pass roomy = third_pass(128 * 1024);
  ASSERT_GT(tight.stalls, roomy.stalls + 100);
  EXPECT_EQ(tight.allocations, roomy.allocations)
      << "stalls " << tight.stalls << " vs " << roomy.stalls;
}

TEST(Cfd, HeaderTruncationIsCountedWhenTheCapBites) {
  // A header already at max_contending_flows drops further (distinct)
  // flows; every drop must show up in both the CFD stat and the network's
  // truncation counter so the loss of prediction accuracy is observable.
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  Simulator sim;
  Mesh2D mesh(8, 8);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  cfg.max_contending_flows = 2;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);

  auto congested_queue = [](NodeId first_src) {
    std::vector<Packet> backing;
    for (NodeId s = first_src; s < first_src + 3; ++s) {
      Packet p;
      p.source = s;
      p.destination = 63;
      p.size_bytes = 1024;
      backing.push_back(p);
    }
    return backing;
  };

  Packet head;
  head.source = 20;
  head.destination = 63;
  head.size_bytes = 1024;

  auto run = [&](NodeId first_src) {
    std::vector<Packet> backing = congested_queue(first_src);
    std::deque<Packet*> queue;
    for (Packet& p : backing) queue.push_back(&p);
    cfd.on_transmit(net, 0, 0, head, 5e-6, queue);
  };
  run(0);  // fills the header to the cap of 2
  EXPECT_EQ(head.contending.size(), 2u);
  EXPECT_EQ(cfd.truncated_flows(), 0u);
  run(30);  // new flows, zero free slots: the non-duplicate one is dropped
  // select_contenders picks 2 flows: the head's own (already in the header,
  // deduplicated) and one new queue flow — which the full header drops.
  EXPECT_EQ(head.contending.size(), 2u);
  EXPECT_EQ(cfd.truncated_flows(), 1u);
  EXPECT_EQ(net.header_truncations(), 1u);
}

}  // namespace
}  // namespace prdrb
