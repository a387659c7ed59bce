// HeartbeatService tests: genuine detection (parent really died) with
// bounded latency, no false suspicions on a clean plane, and false
// suspicion + disruption-free recovery when a link is fully severed.
#include "overlay/heartbeat.h"

#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"
#include "proto/min_depth.h"
#include "sim/fault_plane.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace omcast::overlay {
namespace {

class HeartbeatTest : public ::testing::Test {
 protected:
  void MakeSession(std::uint64_t seed = 5) {
    SessionParams sp;
    sp.external_failure_detection = true;
    session_ = std::make_unique<Session>(
        sim_, topology_, std::make_unique<proto::MinDepthProtocol>(), sp,
        seed);
  }

  sim::Simulator sim_;
  const net::Topology& topology_ = test::TinyTopology();
  std::unique_ptr<Session> session_;
};

TEST_F(HeartbeatTest, DetectsRealParentDeathAndRejoinsTheOrphan) {
  MakeSession();
  HeartbeatParams hp;  // period 1 s, 3 misses -> 4 s suspicion timeout
  HeartbeatService hb(*session_, hp, 7);

  Tree& tree = session_->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId parent = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child = session_->InjectMember(1.0, 1e9);
  sim_.RunUntil(2.0);
  ASSERT_EQ(tree.Parent(child), parent);

  session_->DepartNow(parent);
  // The session must NOT have rejoined the orphan on its own...
  EXPECT_EQ(tree.Parent(child), kNoNode);
  // ...but the detector notices the silence within its timeout (+1 beat of
  // phase, + hops) and re-enters the join path.
  sim_.RunUntil(sim_.now() + hb.SuspicionTimeout() + hp.period_s + 1.0);
  EXPECT_EQ(hb.detections(), 1);
  EXPECT_EQ(hb.false_suspicions(), 0);
  EXPECT_NE(tree.Parent(child), kNoNode);
  EXPECT_TRUE(tree.IsRooted(child));

  // Latency metric: the silence clock starts at the last beat *before* the
  // death, so latency spans [timeout - period, timeout + period] (+ hops).
  ASSERT_EQ(hb.detection_latency().count(), 1);
  EXPECT_GE(hb.detection_latency().mean(),
            hb.SuspicionTimeout() - hp.period_s - 0.5);
  EXPECT_LE(hb.detection_latency().mean(),
            hb.SuspicionTimeout() + hp.period_s + 0.5);
}

TEST_F(HeartbeatTest, QuietCleanPlaneProducesNoSuspicions) {
  MakeSession();
  HeartbeatService hb(*session_, {}, 7);
  session_->Prepopulate(30);
  sim_.RunUntil(60.0);
  EXPECT_GT(hb.heartbeats_sent(), 0);
  EXPECT_EQ(hb.false_suspicions(), 0);
}

TEST_F(HeartbeatTest, SeveredLinkCausesFalseSuspicionAndReconnection) {
  MakeSession();
  sim::FaultPlane plane(sim_, {}, 11);
  HeartbeatParams hp;
  HeartbeatService hb(*session_, hp, 7, &plane);

  Tree& tree = session_->tree();
  tree.SetCapacity(kRootId, 1);
  const NodeId parent = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId child = session_->InjectMember(1.0, 1e9);
  sim_.RunUntil(2.0);
  ASSERT_EQ(tree.Parent(child), parent);
  const int reconnections_before = tree.Get(child).reconnections;

  // Sever parent -> child: every heartbeat is lost, though the parent is
  // alive and forwarding. The child cannot tell this from a death.
  plane.SetLinkLossRate(parent, child, 1.0);
  sim_.RunUntil(sim_.now() + hb.SuspicionTimeout() + hp.period_s + 2.0);
  EXPECT_GE(hb.false_suspicions(), 1);
  EXPECT_EQ(hb.detections(), 0);
  // The child re-entered the join path (charged as protocol overhead, not a
  // disruption) and is attached again.
  EXPECT_GT(tree.Get(child).reconnections, reconnections_before);
  EXPECT_TRUE(tree.Alive(child));
}

}  // namespace
}  // namespace omcast::overlay
