#include "stream/streaming.h"

#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"
#include "proto/min_depth.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace omcast::stream {
namespace {

using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::SessionParams;

class StreamingTest : public ::testing::Test {
 protected:
  void MakeSession(StreamParams params, std::uint64_t seed = 9,
                   double root_bandwidth = 100.0) {
    SessionParams sp;
    sp.root_bandwidth = root_bandwidth;
    session_ = std::make_unique<Session>(
        sim_, topology_, std::make_unique<proto::MinDepthProtocol>(), sp,
        seed);
    streaming_ = std::make_unique<StreamingLayer>(*session_, params, seed);
  }

  sim::Simulator sim_;
  const net::Topology& topology_ = test::TinyTopology();
  std::unique_ptr<Session> session_;
  std::unique_ptr<StreamingLayer> streaming_;
};

TEST_F(StreamingTest, FailureTriggersOneOutagePerOrphan) {
  MakeSession(StreamParams{});
  // root <- hub <- {c1, c2}; hub's failure orphans both children.
  const NodeId hub = session_->InjectMember(5.0, 1e9);
  const NodeId c1 = session_->InjectMember(0.5, 1e9);
  const NodeId c2 = session_->InjectMember(0.5, 1e9);
  // Helpers for recovery.
  for (int i = 0; i < 20; ++i) session_->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  overlay::Tree& tree = session_->tree();
  for (NodeId id : {c1, c2}) {
    test::Reparent(tree, id, hub);
  }
  session_->DepartNow(hub);
  EXPECT_EQ(streaming_->outages_simulated(), 2);
}

TEST_F(StreamingTest, StarvingRatioRecordedOnDeparture) {
  StreamParams p;
  p.recovery_group_size = 1;
  MakeSession(p);
  streaming_->SetMeasurementWindow(0.0, 1e9);
  for (int i = 0; i < 20; ++i) session_->InjectMember(1.0, 1e9);
  const NodeId hub = session_->InjectMember(5.0, 40.0);  // dies at t=40
  sim_.RunUntil(1.0);
  const NodeId victim = session_->InjectMember(0.5, 120.0);
  sim_.RunUntil(2.0);
  overlay::Tree& tree = session_->tree();
  test::Reparent(tree, victim, hub);
  sim_.RunUntil(200.0);  // hub dies at 40, victim at ~122
  ASSERT_FALSE(tree.Alive(victim));
  EXPECT_GE(streaming_->ratio_stat().count(), 1u);
  // The victim starved for part of its 115 s of viewing.
  EXPECT_GT(streaming_->ratio_stat().max(), 0.0);
  EXPECT_LE(streaming_->ratio_stat().max(), 1.0);
}

TEST_F(StreamingTest, DescendantsInheritOrphanStall) {
  StreamParams p;
  p.recovery_group_size = 1;
  MakeSession(p);
  streaming_->SetMeasurementWindow(0.0, 1e9);
  for (int i = 0; i < 10; ++i) session_->InjectMember(1.0, 1e9);
  const NodeId hub = session_->InjectMember(5.0, 1e9);
  const NodeId mid = session_->InjectMember(2.0, 60.0);
  const NodeId leaf = session_->InjectMember(0.5, 60.0);
  sim_.RunUntil(1.0);
  overlay::Tree& tree = session_->tree();
  tree.Detach(mid);
  tree.Attach(hub, mid);
  tree.Detach(leaf);
  tree.Attach(mid, leaf);
  session_->DepartNow(hub);
  // Exactly one outage (mid is the only orphan), charged to mid and leaf.
  EXPECT_EQ(streaming_->outages_simulated(), 1);
  sim_.RunUntil(100.0);  // both depart, ratios recorded
  // Qualifying departures: hub (stall 0), mid and leaf.
  ASSERT_EQ(streaming_->ratio_stat().count(), 3u);
  const auto& samples = streaming_->ratio_samples();
  EXPECT_DOUBLE_EQ(samples[0], 0.0);  // the hub itself never starved
  // mid and leaf suffered the same outage against the same view time.
  EXPECT_GT(samples[1], 0.0);
  EXPECT_NEAR(samples[1], samples[2], 0.05);
}

TEST_F(StreamingTest, BiggerGroupsReduceStarving) {
  // Run the same churn twice; per outage, group size 3 must starve far less
  // than size 1 (Fig. 12's order-of-magnitude claim).
  auto run = [&](int group_size) {
    sim::Simulator sim;
    // A modest source (capacity 6) forces real tree depth on this tiny
    // overlay so failures actually orphan subtrees.
    SessionParams sp;
    sp.root_bandwidth = 6.0;
    Session session(sim, topology_, std::make_unique<proto::MinDepthProtocol>(),
                    sp, 33);
    StreamParams p;
    p.recovery_group_size = group_size;
    StreamingLayer streaming(session, p, 33);
    streaming.SetMeasurementWindow(0.0, 1e9);
    session.Prepopulate(80);
    session.StartArrivals(80.0 / rnd::kMeanLifetimeSeconds);
    sim.RunUntil(4000.0);
    EXPECT_GT(streaming.outages_simulated(), 0);
    return streaming.outage_starving_stat().mean();
  };
  const double r1 = run(1);
  const double r3 = run(3);
  EXPECT_GT(r1, 0.0);
  EXPECT_LT(r3, r1 / 2.0);
}

TEST_F(StreamingTest, CooperativeBeatsSingleSource) {
  // Drive identical failures under both modes (same seed, same residual
  // bandwidth draws): striping over 3 nodes must starve less than the
  // single-source chain.
  auto run = [&](core::RecoveryMode mode) {
    sim::Simulator sim;
    Session session(sim, topology_, std::make_unique<proto::MinDepthProtocol>(),
                    SessionParams{}, 44);
    StreamParams p;
    p.recovery_group_size = 3;
    p.mode = mode;
    StreamingLayer streaming(session, p, 44);
    streaming.SetMeasurementWindow(0.0, 1e9);
    for (int i = 0; i < 30; ++i) session.InjectMember(1.0, 1e9);
    sim.RunUntil(1.0);
    for (int round = 0; round < 5; ++round) {
      const overlay::NodeId hub = session.InjectMember(5.0, 1e9);
      const overlay::NodeId c1 = session.InjectMember(0.5, 1e9);
      const overlay::NodeId c2 = session.InjectMember(0.5, 1e9);
      sim.RunUntil(sim.now() + 1.0);
      overlay::Tree& tree = session.tree();
      for (overlay::NodeId c : {c1, c2}) {
        test::Reparent(tree, c, hub);
      }
      session.DepartNow(hub);
    }
    EXPECT_EQ(streaming.outages_simulated(), 10);
    return streaming.outage_starving_stat().mean();
  };
  const double coop = run(core::RecoveryMode::kCooperative);
  const double single = run(core::RecoveryMode::kSingleSource);
  EXPECT_GT(single, 0.0);
  EXPECT_LT(coop, single);
}

TEST_F(StreamingTest, WindowFiltersPrepopulatedMembers) {
  MakeSession(StreamParams{});
  streaming_->SetMeasurementWindow(0.0, 1e9);
  session_->Prepopulate(50);
  sim_.RunUntil(3000.0);
  // Some prepopulated members departed, but none qualify (negative join).
  for (double r : streaming_->ratio_samples()) EXPECT_GE(r, 0.0);
  // Inject a fresh short-lived member: it qualifies after departing.
  const auto before = streaming_->ratio_stat().count();
  session_->InjectMember(1.0, 30.0);
  sim_.RunUntil(3100.0);
  EXPECT_EQ(streaming_->ratio_stat().count(), before + 1);
}

TEST_F(StreamingTest, AggregateRateReflectsUsableSources) {
  StreamParams p;
  p.recovery_group_size = 4;
  MakeSession(p, /*seed=*/9, /*root_bandwidth=*/6.0);
  streaming_->SetMeasurementWindow(0.0, 1e9);
  session_->Prepopulate(80);
  session_->StartArrivals(80.0 / rnd::kMeanLifetimeSeconds);
  sim_.RunUntil(3000.0);
  ASSERT_GT(streaming_->outages_simulated(), 0);
  // Mean assembled rate lies between a single node's mean residual (0.45)
  // and the cap (1.0).
  EXPECT_GT(streaming_->aggregate_rate_stat().mean(), 0.3);
  EXPECT_LE(streaming_->aggregate_rate_stat().mean(), 1.0);
}

}  // namespace
}  // namespace omcast::stream
