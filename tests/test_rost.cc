#include "core/rost/rost.h"

#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace omcast::core {
namespace {

using overlay::kNoNode;
using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::SessionParams;
using overlay::Tree;

class RostTest : public ::testing::Test {
 protected:
  // Builds a session whose RostProtocol pointer is retained for inspection.
  std::unique_ptr<Session> Make(RostParams params = {},
                                std::uint64_t seed = 3) {
    auto protocol = std::make_unique<RostProtocol>(params);
    rost_ = protocol.get();
    return std::make_unique<Session>(sim_, topology_, std::move(protocol),
                                     SessionParams{}, seed);
  }

  sim::Simulator sim_;
  const net::Topology& topology_ = test::TinyTopology();
  RostProtocol* rost_ = nullptr;
};

TEST_F(RostTest, JoinsLikeMinDepth) {
  auto s = Make();
  const NodeId a = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(1.0);
  EXPECT_EQ(s->tree().Parent(a), kRootId);
}

TEST_F(RostTest, ChildWithHigherBtpAndBandwidthSwitchesUp) {
  RostParams p;
  p.switching_interval_s = 100.0;
  auto s = Make(p);
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId parent = s->InjectMember(1.0, 1e9);  // bw 1
  sim_.RunUntil(1.0);
  const NodeId child = s->InjectMember(4.0, 1e9);  // bw 4, joins below
  sim_.RunUntil(2.0);
  ASSERT_EQ(tree.Parent(child), parent);
  // BTP(child) = 4 * age grows 4x faster; by one interval it dominates.
  sim_.RunUntil(150.0);
  EXPECT_EQ(tree.Parent(child), kRootId);
  EXPECT_EQ(tree.Parent(parent), child);
  EXPECT_EQ(tree.Layer(child), 1);
  EXPECT_EQ(tree.Layer(parent), 2);
  EXPECT_EQ(rost_->switches_performed(), 1);
  tree.CheckInvariants();
}

TEST_F(RostTest, LowerBandwidthChildNeverSwitchesEvenWithHigherBtp) {
  RostParams p;
  p.switching_interval_s = 50.0;
  auto s = Make(p);
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId parent = s->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child = s->InjectMember(1.0, 1e9);
  sim_.RunUntil(2.0);
  ASSERT_EQ(tree.Parent(child), parent);
  // Give the child an artificially huge age so its BTP exceeds the
  // parent's; bandwidth comparison must still veto the switch (the parent
  // would out-earn it eventually -- Section 3.3).
  tree.Get(child).join_time = -1e6;
  sim_.RunUntil(500.0);
  EXPECT_EQ(tree.Parent(child), parent);
  EXPECT_EQ(rost_->switches_performed(), 0);
}

TEST_F(RostTest, Figure2SwitchSemantics) {
  // Reproduce Fig. 2 exactly: a (BTP 10, degree 2) parent of b (BTP 12,
  // degree 3) and c; b parent of d, e, f with BTPs 3, 4, 5.
  RostParams p;
  p.switching_interval_s = 1e8;  // manual triggering only
  auto s = Make(p);
  Tree& tree = s->tree();
  // Bandwidths chosen so capacity(a)=2, capacity(b)=3 and BTP order at
  // t=1200 matches the figure: BTP = bw * age.
  const NodeId a = s->InjectMember(2.0, 1e9);
  const NodeId b = s->InjectMember(3.0, 1e9);
  const NodeId c = s->InjectMember(0.5, 1e9);
  const NodeId d = s->InjectMember(0.5, 1e9);
  const NodeId e = s->InjectMember(0.5, 1e9);
  const NodeId f = s->InjectMember(0.9, 1e9);
  sim_.RunUntil(1.0);
  // Hand-shape the tree: root <- a <- {b, c}; b <- {d, e, f}.
  for (NodeId id : {a, b, c, d, e, f})
    if (tree.Parent(id) != kNoNode) tree.Detach(id);
  tree.Attach(kRootId, a);
  tree.Attach(a, b);
  tree.Attach(a, c);
  tree.Attach(b, d);
  tree.Attach(b, e);
  tree.Attach(b, f);
  // Ages: choose join times so that b's BTP (12) > a's (10), and f has the
  // largest BTP among {d, e, f}.
  const double now = 100.0;
  tree.Get(a).join_time = now - 10.0 / 2.0;  // BTP 10
  tree.Get(b).join_time = now - 12.0 / 3.0;  // BTP 12
  tree.Get(d).join_time = now - 3.0 / 0.5;   // BTP 3
  tree.Get(e).join_time = now - 4.0 / 0.5;   // BTP 4
  tree.Get(f).join_time = now - 5.0 / 0.9;   // BTP 5
  sim_.RunUntil(now);
  rost_->CheckSwitchNow(*s, b);
  // After the switch (paper Fig. 2(b)): b under root' position of a; a is
  // b's child; c remains under... c moves to b (a's former child), a keeps
  // d and e, and f (largest BTP overflow) stays with b.
  EXPECT_EQ(tree.Parent(b), kRootId);
  EXPECT_EQ(tree.Parent(a), b);
  EXPECT_EQ(tree.Parent(c), b);
  EXPECT_EQ(tree.Parent(f), b);
  EXPECT_EQ(tree.Parent(d), a);
  EXPECT_EQ(tree.Parent(e), a);
  EXPECT_EQ(tree.Children(b).size(), 3u);
  EXPECT_EQ(tree.Children(a).size(), 2u);
  // Parent changes: b, a, sibling c, moved children d and e -- 2d+1 = 5.
  EXPECT_EQ(tree.Get(b).reconnections + tree.Get(a).reconnections +
                tree.Get(c).reconnections + tree.Get(d).reconnections +
                tree.Get(e).reconnections + tree.Get(f).reconnections,
            5);
  EXPECT_EQ(tree.Get(f).reconnections, 0);  // f kept its parent
  tree.CheckInvariants();
}

TEST_F(RostTest, NeverSwitchesAboveRoot) {
  RostParams p;
  p.switching_interval_s = 10.0;
  auto s = Make(p);
  const NodeId a = s->InjectMember(50.0, 1e9);
  sim_.RunUntil(1.0);
  ASSERT_EQ(s->tree().Parent(a), kRootId);
  sim_.RunUntil(1000.0);
  EXPECT_EQ(s->tree().Parent(a), kRootId);
  EXPECT_EQ(rost_->switches_performed(), 0);
}

TEST_F(RostTest, LockConflictDefersSwitch) {
  RostParams p;
  p.switching_interval_s = 100.0;
  p.lock_retry_delay_s = 15.0;
  p.lock_hold_s = 1e6;  // locks effectively never expire
  auto s = Make(p);
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId parent = s->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child = s->InjectMember(4.0, 1e9);
  sim_.RunUntil(2.0);
  ASSERT_EQ(tree.Parent(child), parent);
  // Pre-lock the parent by running a switch elsewhere is fiddly; instead
  // mark the parent as recovering, which blocks the lock the same way.
  rost_->OnOrphaned(*s, parent);
  sim_.RunUntil(400.0);
  EXPECT_EQ(tree.Parent(child), parent);  // blocked
  EXPECT_GT(rost_->lock_conflicts(), 0);
}

TEST_F(RostTest, RecoveringFlagClearsOnReattach) {
  RostParams p;
  p.switching_interval_s = 30.0;
  auto s = Make(p);
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId parent = s->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child = s->InjectMember(4.0, 1e9);
  sim_.RunUntil(2.0);
  // Orphan the parent, then let it rejoin: the flag must clear and the
  // switch eventually proceed.
  tree.Detach(parent);
  s->ForceRejoin(parent);
  sim_.RunUntil(300.0);
  EXPECT_EQ(tree.Parent(child), kRootId);
  EXPECT_GE(rost_->switches_performed(), 1);
}

TEST_F(RostTest, InfeasibleSwitchAborts) {
  // A bandwidth cheater (claims 100, actual capacity 2) passes the BTP and
  // bandwidth comparisons but cannot physically host parent + 2 siblings
  // after the swap; the switch handshake aborts.
  RostParams p;
  p.switching_interval_s = 1e8;
  auto s = Make(p);
  Tree& tree = s->tree();
  const NodeId parent = s->InjectMember(3.0, 1e9);
  const NodeId child = s->InjectMember(2.0, 1e9);
  const NodeId sib1 = s->InjectMember(0.5, 1e9);
  const NodeId sib2 = s->InjectMember(0.5, 1e9);
  const NodeId k1 = s->InjectMember(0.5, 1e9);
  const NodeId k2 = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  for (NodeId id : {parent, child, sib1, sib2, k1, k2})
    if (tree.Parent(id) != kNoNode) tree.Detach(id);
  tree.Attach(kRootId, parent);
  tree.Attach(parent, child);
  tree.Attach(parent, sib1);
  tree.Attach(parent, sib2);
  tree.Attach(child, k1);
  tree.Attach(child, k2);
  tree.Get(child).reported_bandwidth = 100.0;
  tree.Get(child).reported_age_bonus = 1e6;
  // Required capacity: 1 (parent) + 2 (siblings) + overflow(2 kids vs
  // cap(parent)=3 -> 0) = 3 > cap(child) = 2.
  rost_->CheckSwitchNow(*s, child);
  EXPECT_EQ(tree.Parent(child), parent);  // aborted, nothing moved
  EXPECT_EQ(rost_->infeasible_switches(), 1);
  EXPECT_EQ(rost_->switches_performed(), 0);
  tree.CheckInvariants();
}

TEST_F(RostTest, PeriodicSwitchingSortsStaticMembersByBandwidth) {
  // With no churn, ROST should converge toward bandwidth ordering along
  // every parent-child chain (BTP grows proportionally to bandwidth).
  RostParams p;
  p.switching_interval_s = 20.0;
  auto s = Make(p);
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  std::vector<NodeId> ids;
  for (double bw : {1.0, 2.0, 3.0, 4.0}) ids.push_back(s->InjectMember(bw, 1e9));
  sim_.RunUntil(2000.0);
  // Along every rooted chain, children must not out-earn parents while
  // having at least the parent's bandwidth for long (steady state: sorted).
  for (NodeId id : ids) {
    const NodeId parent = tree.Parent(id);
    if (parent == kRootId) continue;
    EXPECT_LE(tree.Get(id).bandwidth, tree.Get(parent).bandwidth + 1e-9);
  }
  tree.CheckInvariants();
}

TEST_F(RostTest, DepartureCancelsTimer) {
  RostParams p;
  p.switching_interval_s = 10.0;
  auto s = Make(p);
  const NodeId a = s->InjectMember(2.0, 50.0);
  sim_.RunUntil(1.0);
  const std::uint64_t before = sim_.pending_count();
  EXPECT_GT(before, 0u);
  s->DepartNow(a);
  sim_.RunUntil(200.0);  // no stale timer should fire on a dead member
  EXPECT_EQ(rost_->switches_performed(), 0);
}

}  // namespace
}  // namespace omcast::core
