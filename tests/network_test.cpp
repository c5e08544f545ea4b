#include <vector>

#include <gtest/gtest.h>

#include "routing/oblivious.hpp"
#include "test_util.hpp"

namespace prdrb {
namespace {

using test::Harness;

/// Policy probe: deterministic hops, records ACKs, optionally requests ACKs
/// and forces a fixed multi-step path.
class ProbePolicy final : public RoutingPolicy {
 public:
  int select_port(RouterId r, const Packet& p,
                  std::span<const int> candidates) override {
    const int idx = net_->topology().deterministic_choice(
        r, p.source, p.current_target(), static_cast<int>(candidates.size()));
    return candidates[static_cast<std::size_t>(idx)];
  }
  PathChoice choose_path(NodeId, NodeId, SimTime) override { return forced; }
  void on_ack(NodeId at, const Packet& ack, SimTime) override {
    acks.push_back({at, ack});
  }
  bool wants_acks() const override { return want_acks; }
  std::string name() const override { return "probe"; }

  PathChoice forced;
  bool want_acks = false;
  std::vector<std::pair<NodeId, Packet>> acks;
};

TEST(Network, SingleMessageUncontendedLatency) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new ProbePolicy, 4, 4);
  h.net->send_message(0, 3, 1024);  // 3 hops along the bottom row
  h.sim.run();
  EXPECT_EQ(h.metrics->packets_delivered(), 1u);
  // VCT pipeline: serialization + first wire + hops*(router+wire) + final
  // router delay. ser=4096ns, wire=20ns, router=40ns, hops=3.
  const double expected = 4096e-9 + 20e-9 + 3 * (40e-9 + 20e-9) + 40e-9;
  EXPECT_NEAR(h.metrics->packet_latency().overall_mean(), expected, 1e-9);
}

TEST(Network, FragmentedMessageReassembles) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new ProbePolicy, 4, 4);
  int completions = 0;
  std::int64_t got_bytes = 0;
  h.net->set_message_handler([&](NodeId, NodeId, std::int64_t bytes, MpiType,
                                 std::int64_t, SimTime) {
    ++completions;
    got_bytes = bytes;
  });
  h.net->send_message(0, 15, 5000);
  h.sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(got_bytes, 5000);
  EXPECT_EQ(h.metrics->packets_delivered(), 5u);  // ceil(5000/1024)
}

TEST(Network, SelfSendBypassesNetwork) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new ProbePolicy, 4, 4);
  int completions = 0;
  h.net->set_message_handler(
      [&](NodeId src, NodeId dst, std::int64_t, MpiType, std::int64_t,
          SimTime) {
        EXPECT_EQ(src, dst);
        ++completions;
      });
  h.net->send_message(7, 7, 2048);
  h.sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(h.metrics->packets_delivered(), 0u);
}

TEST(Network, AckRoundTripReportsLatency) {
  auto* probe = new ProbePolicy;
  probe->want_acks = true;
  auto h = Harness::make<Mesh2D>(NetConfig{}, probe, 4, 4);
  h.net->send_message(0, 3, 1024);
  h.sim.run();
  ASSERT_EQ(probe->acks.size(), 1u);
  const auto& [at, ack] = probe->acks[0];
  EXPECT_EQ(at, 0);                      // delivered back at the source
  EXPECT_EQ(ack.source, 3);              // from the destination
  EXPECT_EQ(ack.type, PacketType::kAck);
  EXPECT_GT(ack.reported_e2e, 4e-6);     // roughly the data latency
  EXPECT_LT(ack.reported_e2e, 5e-6);
  EXPECT_GE(ack.reported_latency, 0.0);
  EXPECT_NE(ack.acked_message_id, 0u);
}

TEST(Network, MultiStepPathDelivers) {
  auto* probe = new ProbePolicy;
  probe->forced = PathChoice{5, 10, 1};  // detour via two intermediates
  auto h = Harness::make<Mesh2D>(NetConfig{}, probe, 4, 4);
  probe->want_acks = true;
  h.net->send_message(0, 15, 1024);
  h.sim.run();
  EXPECT_EQ(h.metrics->packets_delivered(), 1u);
  ASSERT_EQ(probe->acks.size(), 1u);
  EXPECT_EQ(probe->acks[0].second.msp_index, 1);
}

// One forced-path message came through: delivered, its ACK echoes the MSP
// index, and every router's buffer accounting is back at zero.
void expect_forced_path_delivered(Harness& h, const ProbePolicy& probe,
                                  std::int32_t msp_index) {
  EXPECT_EQ(h.metrics->packets_delivered(), 1u);
  ASSERT_EQ(probe.acks.size(), 1u);
  EXPECT_EQ(probe.acks[0].second.msp_index, msp_index);
  for (RouterId r = 0; r < h.net->num_routers(); ++r) {
    for (int vn = 0; vn < kNumVirtualNetworks; ++vn) {
      EXPECT_EQ(h.net->buffer_used(r, vn), 0)
          << "router " << r << " vn " << vn;
    }
  }
}

// One 0 -> 15 message on mesh-4x4 along `path`, checked as above; returns
// its latency.
double forced_path_latency(PathChoice path) {
  auto* probe = new ProbePolicy;
  probe->forced = path;
  probe->want_acks = true;
  auto h = Harness::make<Mesh2D>(NetConfig{}, probe, 4, 4);
  h.net->send_message(0, 15, 1024);
  h.sim.run();
  expect_forced_path_delivered(h, *probe, path.msp_index);
  return h.metrics->packet_latency().overall_mean();
}

// The HDP step passes every header slot that names the router it is at, so
// IN1 == IN2 is one waypoint: the same trip as naming the IN once.
TEST(Network, RepeatedIntermediateIsOneWaypoint) {
  EXPECT_DOUBLE_EQ(forced_path_latency({5, 5, 2}),
                   forced_path_latency({5, kInvalidNode, 2}));
}

// Nodes 2 and 3 of tree-16 share a leaf router: reaching IN2 = 2 reaches
// the destination's router, where the header steps on to the destination.
TEST(Network, IntermediateOnTheDestinationRouterDelivers) {
  auto* probe = new ProbePolicy;
  probe->forced = PathChoice{kInvalidNode, 2, 3};
  probe->want_acks = true;
  auto h = Harness::make<KAryNTree>(NetConfig{}, probe, 2, 4);
  ASSERT_EQ(h.topo->node_router(2), h.topo->node_router(3));
  h.net->send_message(0, 3, 1024);
  h.sim.run();
  expect_forced_path_delivered(h, *probe, 3);
}

TEST(Network, MultiStepDetourTakesLongerThanDirect) {
  const auto run_with = [](PathChoice pc) {
    auto* probe = new ProbePolicy;
    probe->forced = pc;
    auto h = Harness::make<Mesh2D>(NetConfig{}, probe, 4, 4);
    h.net->send_message(0, 3, 1024);
    h.sim.run();
    return h.metrics->packet_latency().overall_mean();
  };
  const double direct = run_with({});
  // Detour via node 12 (corner (0,3)): adds 6 extra hops.
  const double detour = run_with({12, kInvalidNode, 1});
  EXPECT_GT(detour, direct);
}

TEST(Network, BackpressureIsLossless) {
  NetConfig cfg;
  cfg.buffer_bytes = 16 * 1024;  // tiny buffers: force blocking
  auto h = Harness::make<Mesh2D>(cfg, new ProbePolicy, 4, 4);
  // Three sources blast one sink through shared links.
  for (int burst = 0; burst < 50; ++burst) {
    h.net->send_message(0, 3, 1024);
    h.net->send_message(4, 3, 1024);
    h.net->send_message(8, 3, 1024);
  }
  h.sim.run();
  EXPECT_EQ(h.metrics->packets_delivered(), 150u);
  EXPECT_DOUBLE_EQ(h.metrics->delivery_ratio(), 1.0);
}

TEST(Network, ContentionShowsUpInLatencyMap) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new ProbePolicy, 4, 4);
  for (int i = 0; i < 20; ++i) {
    h.net->send_message(0, 3, 1024);
    h.net->send_message(4, 7, 1024);  // row 1, no overlap with row 0
  }
  h.sim.run();
  // Back-to-back packets from one source contend at their own NIC link but
  // router queues see waiting too once multiple packets pile up.
  EXPECT_GT(h.metrics->contention_map().peak(), 0.0);
}

TEST(Network, InjectAtRouterDeliversControlPacket) {
  auto* probe = new ProbePolicy;
  auto h = Harness::make<Mesh2D>(NetConfig{}, probe, 4, 4);
  h.sim.schedule_in(1e-6, [&] {
    Packet ack;
    ack.type = PacketType::kPredictiveAck;
    ack.source = 9;        // flow destination
    ack.destination = 2;   // flow source to notify
    ack.size_bytes = 64;
    ack.contending.push_back({2, 9});
    h.net->inject_at_router(5, std::move(ack));
  });
  h.sim.run();
  ASSERT_EQ(probe->acks.size(), 1u);
  EXPECT_EQ(probe->acks[0].first, 2);
  EXPECT_EQ(probe->acks[0].second.type, PacketType::kPredictiveAck);
  ASSERT_EQ(probe->acks[0].second.contending.size(), 1u);
}

TEST(Network, ObserverSeesInjectionsAndDeliveries) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new ProbePolicy, 4, 4);
  h.net->send_message(1, 2, 3000);
  h.sim.run();
  EXPECT_EQ(h.metrics->bytes_offered(), 3000);
  EXPECT_EQ(h.metrics->bytes_accepted(), 3000);
  EXPECT_EQ(h.metrics->messages_delivered(), 1u);
}

TEST(Network, FatTreeDelivery) {
  auto h = Harness::make<KAryNTree>(NetConfig{}, new ProbePolicy, 4, 3);
  for (NodeId s = 0; s < 64; s += 7) {
    h.net->send_message(s, 63 - s, 1024);
  }
  h.sim.run();
  EXPECT_EQ(h.metrics->delivery_ratio(), 1.0);
  EXPECT_GT(h.metrics->packets_delivered(), 0u);
}

}  // namespace
}  // namespace prdrb
