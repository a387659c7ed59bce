// End-to-end ELN behaviour inside the per-packet simulator: descendants of
// a failed member's orphan classify the outage as *upstream loss* (their
// parent keeps talking via ELN) while the protocol's rejoin stays confined
// to the orphan itself -- the paper's duplicate-recovery/unnecessary-rejoin
// avoidance argument, observed on the wire.
#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"
#include "proto/min_depth.h"
#include "sim/simulator.h"
#include "stream/packet_sim.h"
#include "test_support.h"

namespace omcast::stream {
namespace {

using overlay::NodeId;
using overlay::Session;
using overlay::SessionParams;

class PacketElnTest : public ::testing::Test {
 protected:
  PacketElnTest() {
    SessionParams sp;
    sp.rejoin_delay_s = 15.0;
    session_ = std::make_unique<Session>(
        sim_, topology_, std::make_unique<proto::MinDepthProtocol>(), sp, 5);
  }

  sim::Simulator sim_;
  const net::Topology& topology_ = test::TinyTopology();
  std::unique_ptr<Session> session_;
};

TEST_F(PacketElnTest, DescendantsClassifyUpstreamLossDuringRecovery) {
  PacketSimParams p;
  p.recovery_group_size = 3;
  PacketLevelStream packets(*session_, p, 7);
  // Helpers with residual bandwidth for the repair.
  for (int i = 0; i < 25; ++i) session_->InjectMember(1.0, 1e9);
  // root <- failing <- orphan <- leaf.
  const NodeId failing = session_->InjectMember(5.0, 1e9);
  const NodeId orphan = session_->InjectMember(2.0, 1e9);
  const NodeId leaf = session_->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  overlay::Tree& tree = session_->tree();
  test::Reparent(tree, orphan, failing);
  test::Reparent(tree, leaf, orphan);
  packets.Start(120.0);
  sim_.RunUntil(30.0);
  EXPECT_EQ(packets.ElnStatusOf(leaf), core::ElnTracker::Status::kHealthy);
  session_->DepartNow(failing);
  // Mid-outage, after the orphan's recovery stripes start delivering
  // out-of-order repairs: the orphan forwards data and ELN downstream, so
  // the leaf sees the loss as upstream, not as its own parent's death.
  sim_.RunUntil(38.0);
  EXPECT_NE(packets.ElnStatusOf(leaf), core::ElnTracker::Status::kHealthy);
  EXPECT_GT(packets.eln_notifications_sent(), 0);
  // The leaf's parent (the orphan) is still its parent: no rejoin happened
  // below the orphan.
  EXPECT_EQ(tree.Parent(leaf), orphan);
  // After the rejoin completes and repairs drain, the stream heals.
  sim_.RunUntil(130.0);
  EXPECT_TRUE(tree.IsRooted(leaf));
}

TEST_F(PacketElnTest, HealthyStreamSendsNoEln) {
  PacketLevelStream packets(*session_, PacketSimParams{}, 9);
  for (int i = 0; i < 10; ++i) session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  packets.Start(30.0);
  sim_.RunUntil(60.0);
  EXPECT_EQ(packets.eln_notifications_sent(), 0);
  for (NodeId id : session_->alive_members())
    EXPECT_EQ(packets.ElnStatusOf(id), core::ElnTracker::Status::kHealthy);
}

}  // namespace
}  // namespace omcast::stream
