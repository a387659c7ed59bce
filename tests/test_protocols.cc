#include <gtest/gtest.h>

#include <memory>

#include "exp/scenario.h"
#include "net/topology.h"
#include "overlay/session.h"
#include "proto/longest_first.h"
#include "proto/min_depth.h"
#include "proto/relaxed_ordered.h"
#include "proto/selection.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace omcast {
namespace {

using overlay::kNoNode;
using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::SessionParams;
using overlay::Tree;

class ProtocolTest : public ::testing::Test {
 protected:
  std::unique_ptr<Session> Make(std::unique_ptr<overlay::Protocol> p,
                                std::uint64_t seed = 3) {
    return std::make_unique<Session>(sim_, topology_, std::move(p),
                                     SessionParams{}, seed);
  }

  sim::Simulator sim_;
  const net::Topology& topology_ = test::TinyTopology();
};

TEST_F(ProtocolTest, MinDepthPrefersHighestLayer) {
  auto s = Make(std::make_unique<proto::MinDepthProtocol>());
  // Fill the tree: first member lands under the root.
  const NodeId a = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(1.0);
  EXPECT_EQ(s->tree().Parent(a), kRootId);
  // Root has 100 slots; the next hundred join at layer 1 before anyone
  // lands at layer 2.
  for (int i = 0; i < 50; ++i) s->InjectMember(0.5, 1e9);
  sim_.RunUntil(2.0);
  for (NodeId id : s->alive_members())
    EXPECT_EQ(s->tree().Layer(id), 1);
}

TEST_F(ProtocolTest, MinDepthBreaksTiesByDelay) {
  auto s = Make(std::make_unique<proto::MinDepthProtocol>());
  const NodeId a = s->InjectMember(2.0, 1e9);
  const NodeId b = s->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  // Saturate the root so the next join must go to layer 2.
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 2);
  const NodeId c = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(2.0);
  const NodeId parent = tree.Parent(c);
  ASSERT_TRUE(parent == a || parent == b);
  const NodeId other = parent == a ? b : a;
  EXPECT_LE(s->DelayMs(c, parent), s->DelayMs(c, other));
}

TEST_F(ProtocolTest, LongestFirstPicksOldest) {
  auto s = Make(std::make_unique<proto::LongestFirstProtocol>());
  // The root is the oldest member, so early members chain under it first;
  // saturate the root to force a real choice.
  s->tree().SetCapacity(kRootId, 1);
  const NodeId a = s->InjectMember(5.0, 1e9);  // oldest non-root
  sim_.RunUntil(10.0);
  const NodeId b = s->InjectMember(5.0, 1e9);
  sim_.RunUntil(20.0);
  const NodeId c = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(21.0);
  EXPECT_EQ(s->tree().Parent(a), kRootId);
  EXPECT_EQ(s->tree().Parent(b), a);  // a older than b
  EXPECT_EQ(s->tree().Parent(c), a);  // a oldest with spare capacity
}

TEST_F(ProtocolTest, RelaxedBoEvictsWeakerNode) {
  auto s = Make(std::make_unique<proto::RelaxedBandwidthOrderedProtocol>());
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);  // force depth
  const NodeId weak = s->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  ASSERT_EQ(tree.Parent(weak), kRootId);
  const NodeId strong = s->InjectMember(4.0, 1e9);
  sim_.RunUntil(2.0);
  // The strong newcomer replaces the weak layer-1 incumbent.
  EXPECT_EQ(tree.Parent(strong), kRootId);
  EXPECT_EQ(tree.Layer(strong), 1);
  // The evicted node rejoined below and was charged a reconnection.
  EXPECT_TRUE(tree.IsRooted(weak));
  EXPECT_EQ(tree.Layer(weak), 2);
  EXPECT_EQ(tree.Get(weak).reconnections, 1);
  tree.CheckInvariants();
}

TEST_F(ProtocolTest, RelaxedBoReplacementAdoptsChildren) {
  auto s = Make(std::make_unique<proto::RelaxedBandwidthOrderedProtocol>());
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  // weak keeps one spare slot so the overlay retains placement headroom
  // (the administrator defers evictions when no slot exists anywhere).
  const NodeId weak = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child1 = s->InjectMember(0.5, 1e9);
  const NodeId child2 = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(2.0);
  ASSERT_EQ(tree.Parent(child1), weak);
  ASSERT_EQ(tree.Parent(child2), weak);
  const NodeId strong = s->InjectMember(10.0, 1e9);
  sim_.RunUntil(3.0);
  // Children moved under the replacement (bandwidth-ordered guarantees
  // capacity) and were charged reconnections. The evicted node's own rejoin
  // may cascade (it outranks its former free-rider children), so only the
  // lower bound on reconnections is fixed.
  EXPECT_GE(tree.Get(child1).reconnections + tree.Get(child2).reconnections, 2);
  EXPECT_GE(tree.Get(weak).reconnections, 1);
  EXPECT_EQ(tree.Layer(strong), 1);
  EXPECT_TRUE(tree.IsRooted(weak));
  EXPECT_TRUE(tree.IsRooted(child1));
  EXPECT_TRUE(tree.IsRooted(child2));
  // Bandwidth ordering holds along every parent-child edge that changed.
  for (NodeId id : {weak, child1, child2})
    EXPECT_GE(tree.Get(tree.Parent(id)).bandwidth, tree.Get(id).bandwidth);
  tree.CheckInvariants();
}

TEST_F(ProtocolTest, RelaxedToFreshJoinEvictsNobody) {
  auto s = Make(std::make_unique<proto::RelaxedTimeOrderedProtocol>());
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId elder = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(100.0);
  const NodeId young = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(101.0);
  // Fresh member (age 0) cannot outrank anyone: it stacks below.
  EXPECT_EQ(tree.Parent(elder), kRootId);
  EXPECT_EQ(tree.Parent(young), elder);
  EXPECT_EQ(tree.Get(elder).reconnections, 0);
}

TEST_F(ProtocolTest, RelaxedToRejoinerEvictsYounger) {
  auto s = Make(std::make_unique<proto::RelaxedTimeOrderedProtocol>());
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId elder = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(50.0);
  const NodeId young = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(60.0);
  ASSERT_EQ(tree.Parent(young), elder);
  // Make the elder's position collapse: detach and force a rejoin. The
  // elder (age 60) outranks the younger (age 10)... but the younger is at
  // layer 2 while layer 1 is now free, so check eviction from a crowded
  // layer instead: detach elder and let it rejoin.
  tree.Detach(elder);
  // `young` is orphaned inside elder's fragment? No: young is elder's child,
  // so it floats with the fragment. Move it out first to keep this test
  // focused on eviction.
  tree.Detach(young);
  tree.Attach(kRootId, young);
  s->ForceRejoin(elder);
  sim_.RunUntil(61.0);
  // The elder outranks the younger layer-1 incumbent and takes its place.
  EXPECT_EQ(tree.Parent(elder), kRootId);
  EXPECT_EQ(tree.Layer(elder), 1);
  EXPECT_TRUE(tree.IsRooted(young));
  EXPECT_GE(tree.Get(young).reconnections, 1);
  tree.CheckInvariants();
}

TEST_F(ProtocolTest, RelaxedToOverflowChildrenAreReparented) {
  auto s = Make(std::make_unique<proto::RelaxedTimeOrderedProtocol>());
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 2);
  // Hand-assemble: root <- {incumbent, elder}; incumbent <- {k1, k2, k3}.
  const NodeId incumbent = s->InjectMember(3.0, 1e9);
  const NodeId elder = s->InjectMember(1.0, 1e9);
  const NodeId k1 = s->InjectMember(1.0, 1e9);
  const NodeId k2 = s->InjectMember(1.0, 1e9);
  const NodeId k3 = s->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  for (NodeId id : {incumbent, elder, k1, k2, k3})
    if (tree.Parent(id) != kNoNode) tree.Detach(id);
  tree.Attach(kRootId, incumbent);
  tree.Attach(kRootId, elder);
  for (NodeId k : {k1, k2, k3}) tree.Attach(incumbent, k);
  // Ages: elder oldest, then k1 > k2 > k3 > incumbent.
  tree.Get(elder).join_time = -100.0;
  tree.Get(k1).join_time = -50.0;
  tree.Get(k2).join_time = -40.0;
  tree.Get(k3).join_time = -30.0;
  tree.Get(incumbent).join_time = 1.0;
  // Shrink the root and make the elder rejoin: it evicts the younger
  // incumbent but can only adopt one (the oldest) of its three children.
  tree.Detach(elder);
  tree.SetCapacity(kRootId, 1);
  s->ForceRejoin(elder);
  sim_.RunUntil(2.0);
  EXPECT_EQ(tree.Parent(elder), kRootId);
  ASSERT_EQ(tree.Children(elder).size(), 1u);
  EXPECT_EQ(tree.Children(elder).front(), k1);  // oldest child adopted
  // The overflow children were re-parented by the administrator (graceful:
  // reconnection but no disruption); the evicted incumbent rejoined alone
  // and took the one streaming disruption of the eviction.
  EXPECT_TRUE(tree.IsRooted(incumbent));
  EXPECT_TRUE(tree.IsRooted(k2));
  EXPECT_TRUE(tree.IsRooted(k3));
  EXPECT_GE(tree.Get(k2).reconnections, 1);
  EXPECT_GE(tree.Get(k3).reconnections, 1);
  EXPECT_EQ(tree.Get(k2).disruptions, 0);
  // The incumbent is disrupted by its eviction (possibly more than once:
  // the re-parented kids are older and may displace it again as they
  // cascade through the placement machinery).
  EXPECT_GE(tree.Get(incumbent).disruptions, 1);
  EXPECT_GE(tree.Get(incumbent).reconnections, 1);
  tree.CheckInvariants();
}

TEST_F(ProtocolTest, MinDepthAndLongestFirstImposeNoOverhead) {
  for (auto alg : {exp::Algorithm::kMinDepth, exp::Algorithm::kLongestFirst}) {
    sim::Simulator sim;
    Session s(sim, topology_, exp::MakeProtocol(alg, core::RostParams{}),
              SessionParams{}, 9);
    s.Prepopulate(60);
    s.StartArrivals(60.0 / rnd::kMeanLifetimeSeconds);
    sim.RunUntil(2000.0);
    for (NodeId id : s.alive_members())
      EXPECT_EQ(s.tree().Get(id).reconnections, 0) << exp::AlgorithmLabel(alg);
  }
}

// Property sweep: every protocol keeps the tree structurally sound under
// heavy churn, across seeds.
class ProtocolChurnTest
    : public ::testing::TestWithParam<std::tuple<exp::Algorithm, int>> {};

TEST_P(ProtocolChurnTest, InvariantsHoldUnderChurn) {
  const auto [alg, seed] = GetParam();
  rnd::Rng topo_rng(11);
  const net::Topology topology =
      net::Topology::Generate(net::TinyTopologyParams(), topo_rng);
  sim::Simulator sim;
  Session s(sim, topology, exp::MakeProtocol(alg, core::RostParams{}),
            SessionParams{}, static_cast<std::uint64_t>(seed));
  s.Prepopulate(60);
  s.StartArrivals(60.0 / rnd::kMeanLifetimeSeconds);
  for (int step = 1; step <= 8; ++step) {
    sim.RunUntil(step * 250.0);
    s.tree().CheckInvariants();
  }
  // Population stays near the target (Little's law).
  EXPECT_GT(s.alive_count(), 20);
  EXPECT_LT(s.alive_count(), 130);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndSeeds, ProtocolChurnTest,
    ::testing::Combine(::testing::Values(exp::Algorithm::kMinDepth,
                                         exp::Algorithm::kLongestFirst,
                                         exp::Algorithm::kRelaxedBo,
                                         exp::Algorithm::kRelaxedTo,
                                         exp::Algorithm::kRost),
                       ::testing::Values(1, 2, 3)),
    [](const auto& param_info) {
      std::string name = exp::AlgorithmLabel(std::get<0>(param_info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_s" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace omcast
