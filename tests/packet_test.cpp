#include <utility>

#include <gtest/gtest.h>

#include "net/packet.hpp"

namespace prdrb {
namespace {

TEST(Packet, DirectPathTargetsDestination) {
  Packet p;
  p.source = 1;
  p.destination = 9;
  EXPECT_EQ(p.current_target(), 9);
  EXPECT_EQ(p.virtual_network(), 0);
}

// The header cursor itself is advanced by the network's HDP step
// (Network::router_receive); network_test drives it end to end.
TEST(Packet, TwoIntermediateTargetsInOrder) {
  Packet p;
  p.source = 0;
  p.destination = 9;
  p.intermediate1 = 3;
  p.intermediate2 = 6;
  EXPECT_EQ(p.current_target(), 3);
  p.header_id = 1;
  EXPECT_EQ(p.current_target(), 6);
  EXPECT_EQ(p.virtual_network(), 1);
  p.header_id = 2;
  EXPECT_EQ(p.current_target(), 9);
  EXPECT_EQ(p.virtual_network(), 2);
}

TEST(Packet, SingleIntermediateSkipsUnusedSlot) {
  Packet p;
  p.destination = 9;
  p.intermediate1 = 4;
  EXPECT_EQ(p.current_target(), 4);
  p.header_id = 1;  // the unset IN2 slot falls through to the destination
  EXPECT_EQ(p.current_target(), 9);
}

TEST(Packet, In2OnlyPathUsedWhenIn1Unset) {
  Packet p;
  p.destination = 9;
  p.intermediate2 = 5;
  EXPECT_EQ(p.current_target(), 5);
  EXPECT_EQ(p.virtual_network(), 0);
  p.header_id = 2;
  EXPECT_EQ(p.current_target(), 9);
}

TEST(Packet, AcksUseDedicatedVirtualNetwork) {
  Packet p;
  p.type = PacketType::kAck;
  EXPECT_EQ(p.virtual_network(), kNumVirtualNetworks - 1);
  p.type = PacketType::kPredictiveAck;
  EXPECT_EQ(p.virtual_network(), kNumVirtualNetworks - 1);
  EXPECT_TRUE(p.is_ack());
}

TEST(Packet, DescribeMentionsEndpoints) {
  Packet p;
  p.source = 2;
  p.destination = 5;
  p.intermediate1 = 3;
  const std::string d = p.describe();
  EXPECT_NE(d.find("2->5"), std::string::npos);
  EXPECT_NE(d.find("via 3"), std::string::npos);
}

TEST(ContendingFlow, OrderingAndEquality) {
  const ContendingFlow a{1, 2};
  const ContendingFlow b{1, 3};
  const ContendingFlow c{1, 2};
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

}  // namespace
TEST(AppendFlow, DedupsCapsAndReportsOutcome) {
  ContendingList list;
  EXPECT_EQ(append_flow(list, {1, 2}, 2), FlowAppend::kAdded);
  EXPECT_EQ(append_flow(list, {1, 2}, 2), FlowAppend::kDuplicate);
  EXPECT_EQ(append_flow(list, {3, 4}, 2), FlowAppend::kAdded);
  EXPECT_EQ(append_flow(list, {5, 6}, 2), FlowAppend::kCapped);
  // A duplicate of a stored flow is reported as such even at the cap.
  EXPECT_EQ(append_flow(list, {3, 4}, 2), FlowAppend::kDuplicate);
  EXPECT_EQ(list.size(), 2u);
}

TEST(SmallVectorT, StaysInlineUpToCapacityThenSpills) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  v.push_back(4);
  EXPECT_FALSE(v.is_inline());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  // clear() keeps the spilled capacity for reuse (no churn on recycle).
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
}

TEST(SmallVectorT, MoveStealsHeapAndCopiesInline) {
  SmallVector<int, 2> inline_v{7, 8};
  SmallVector<int, 2> m1 = std::move(inline_v);
  ASSERT_EQ(m1.size(), 2u);
  EXPECT_EQ(m1[0], 7);
  EXPECT_TRUE(m1.is_inline());

  SmallVector<int, 2> spilled{1, 2, 3};
  SmallVector<int, 2> m2 = std::move(spilled);
  ASSERT_EQ(m2.size(), 3u);
  EXPECT_EQ(m2[2], 3);
  EXPECT_FALSE(m2.is_inline());
  EXPECT_TRUE(spilled.empty());  // NOLINT(bugprone-use-after-move)
}

}  // namespace prdrb