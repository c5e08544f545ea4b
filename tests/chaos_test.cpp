// Randomized conservation properties ("chaos" tests): under arbitrary
// message soups across topologies, policies and seeds, the network must
// deliver every message exactly once, conserve bytes, and leave every
// buffer empty when it drains.
#include <gtest/gtest.h>

#include "core/pr_drb.hpp"
#include "experiment/scenario.hpp"
#include "metrics/collector.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace prdrb {
namespace {

struct ChaosCase {
  const char* topology;
  const char* policy;
  std::uint64_t seed;
  int messages;
};

// CTest names each case after this value; the default byte dump holds the
// string addresses, which change from one test discovery to the next.
void PrintTo(const ChaosCase& c, std::ostream* os) {
  *os << c.topology << ' ' << c.policy << " seed " << c.seed << ' '
      << c.messages << " msgs";
}

class ChaosProperty : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosProperty, ConservationHolds) {
  const ChaosCase c = GetParam();
  Simulator sim;
  auto topo = make_topology(c.topology).value_or_throw();
  NetConfig cfg;
  cfg.buffer_bytes = 64 * 1024;  // small buffers: exercise backpressure
  auto bundle = make_policy(c.policy).value_or_throw();
  Network net(sim, *topo, cfg, *bundle.policy);
  if (bundle.monitor) net.set_monitor(bundle.monitor.get());
  MetricsCollector metrics(topo->num_nodes(), topo->num_routers());
  net.set_observer(&metrics);

  std::uint64_t completions = 0;
  std::int64_t bytes_received = 0;
  net.set_message_handler([&](NodeId, NodeId, std::int64_t bytes, MpiType,
                              std::int64_t, SimTime) {
    ++completions;
    bytes_received += bytes;
  });

  Rng rng(c.seed);
  std::int64_t bytes_sent = 0;
  int expected = 0;
  for (int i = 0; i < c.messages; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(topo->num_nodes())));
    const auto dst = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(topo->num_nodes())));
    const auto bytes = static_cast<std::int64_t>(rng.next_int(1, 6000));
    const SimTime when = rng.next_double() * 1e-3;
    sim.schedule_at(when, [&net, src, dst, bytes] {
      net.send_message(src, dst, bytes);
    });
    bytes_sent += bytes;
    ++expected;
  }
  sim.run();

  EXPECT_EQ(completions, static_cast<std::uint64_t>(expected));
  EXPECT_EQ(bytes_received, bytes_sent);
  for (RouterId r = 0; r < net.num_routers(); ++r) {
    for (int vn = 0; vn < kNumVirtualNetworks; ++vn) {
      EXPECT_EQ(net.buffer_used(r, vn), 0)
          << c.topology << "/" << c.policy << " router " << r << " vn " << vn;
    }
  }
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_TRUE(net.nic(n).inject_queue.empty());
    EXPECT_TRUE(net.nic(n).rx.empty()) << "unfinished reassembly at " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Soups, ChaosProperty,
    ::testing::Values(ChaosCase{"mesh-4x4", "deterministic", 1, 400},
                      ChaosCase{"mesh-8x8", "drb", 2, 400},
                      ChaosCase{"mesh-4x4", "pr-drb", 3, 400},
                      ChaosCase{"torus-5x5", "deterministic", 4, 400},
                      ChaosCase{"tree-16", "random", 5, 400},
                      ChaosCase{"tree-32", "adaptive", 6, 400},
                      ChaosCase{"tree-64", "pr-drb@router", 7, 400},
                      ChaosCase{"tree-64", "pr-fr-drb", 8, 300},
                      ChaosCase{"kary-2-3", "cyclic", 9, 400},
                      ChaosCase{"mesh-2x2", "drb", 10, 200},
                      ChaosCase{"mesh-4x4x4", "drb", 11, 400},
                      ChaosCase{"cube-5", "pr-drb", 12, 300}));

}  // namespace
}  // namespace prdrb
