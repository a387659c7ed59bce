#include "metrics/collectors.h"

#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"
#include "proto/min_depth.h"
#include "sim/simulator.h"
#include "util/log.h"
#include "test_support.h"

namespace omcast::metrics {
namespace {

using overlay::kRootId;
using overlay::NodeId;
using overlay::Session;
using overlay::SessionParams;

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() {
    session_ = std::make_unique<Session>(
        sim_, topology_, std::make_unique<proto::MinDepthProtocol>(),
        SessionParams{}, 13);
  }

  sim::Simulator sim_;
  const net::Topology& topology_ = test::TinyTopology();
  std::unique_ptr<Session> session_;
};

TEST_F(MetricsTest, MemberOutcomesCountsOnlyWindowedDepartures) {
  MemberOutcomes outcomes(*session_);
  outcomes.SetWindow(100.0, 200.0);
  session_->InjectMember(1.0, 50.0);   // departs at 50: before the window
  session_->InjectMember(1.0, 150.0);  // departs at 150: inside
  session_->InjectMember(1.0, 500.0);  // departs at 500: after
  sim_.RunUntil(600.0);
  EXPECT_EQ(outcomes.qualifying_members(), 1);
}

TEST_F(MetricsTest, MemberOutcomesSkipsPrepopulated) {
  MemberOutcomes outcomes(*session_);
  outcomes.SetWindow(0.0, 1e6);
  session_->Prepopulate(40);
  sim_.RunUntil(3000.0);
  // Departures happened, but all were pre-populated (join_time < 0).
  int departed = 40 - session_->alive_count();
  ASSERT_GT(departed, 3);
  EXPECT_EQ(outcomes.qualifying_members(), 0);
  // Harvesting alive members also skips them.
  outcomes.HarvestAliveMembers();
  EXPECT_EQ(outcomes.qualifying_members(), 0);
}

TEST_F(MetricsTest, HarvestAddsAliveJoiners) {
  MemberOutcomes outcomes(*session_);
  outcomes.SetWindow(0.0, 1e6);
  for (int i = 0; i < 5; ++i) session_->InjectMember(1.0, 1e9);
  sim_.RunUntil(10.0);
  EXPECT_EQ(outcomes.qualifying_members(), 0);  // nobody departed
  outcomes.HarvestAliveMembers();
  EXPECT_EQ(outcomes.qualifying_members(), 5);
}

TEST_F(MetricsTest, TreeSnapshotsAverageOverWindow) {
  TreeSnapshots snaps(*session_, 50.0);
  for (int i = 0; i < 10; ++i) session_->InjectMember(2.0, 1e9);
  snaps.Start(100.0, 300.0);
  sim_.RunUntil(400.0);
  EXPECT_EQ(snaps.snapshots_taken(), 5);  // 100,150,200,250,300
  EXPECT_GT(snaps.delay_ms().mean(), 0.0);
  EXPECT_GE(snaps.stretch().mean(), 1.0);
  EXPECT_NEAR(snaps.population().mean(), 10.0, 0.5);
  EXPECT_GE(snaps.depth().mean(), 1.0);
}

TEST_F(MetricsTest, TreeSnapshotsSkipUnrootedMembers) {
  TreeSnapshots snaps(*session_, 10.0);
  const NodeId a = session_->InjectMember(2.0, 1e9);
  const NodeId b = session_->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  overlay::Tree& tree = session_->tree();
  test::Reparent(tree, b, a);
  tree.Detach(a);  // both unrooted now
  snaps.Start(2.0, 12.0);
  sim_.RunUntil(15.0);
  EXPECT_NEAR(snaps.population().mean(), 0.0, 1e-9);
  tree.Attach(kRootId, a);
}

TEST_F(MetricsTest, MemberTraceRecordsDisruptionsAndDelays) {
  MemberTrace trace(*session_, 5.0);
  const NodeId hub = session_->InjectMember(5.0, 1e9);
  const NodeId tagged = session_->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  overlay::Tree& tree = session_->tree();
  test::Reparent(tree, tagged, hub);
  trace.Track(tagged);
  sim_.RunUntil(20.0);
  session_->DepartNow(hub);
  sim_.RunUntil(40.0);
  ASSERT_EQ(trace.disruption_series().size(), 1u);
  EXPECT_NEAR(trace.disruption_series()[0].t, 20.0, 1e-9);
  EXPECT_EQ(trace.disruption_series()[0].v, 1.0);
  EXPECT_GE(trace.delay_series().size(), 6u);
  for (const auto& p : trace.delay_series()) EXPECT_GT(p.v, 0.0);
}

TEST_F(MetricsTest, MemberTraceStopsAtDeparture) {
  MemberTrace trace(*session_, 5.0);
  const NodeId tagged = session_->InjectMember(1.0, 30.0);
  sim_.RunUntil(1.0);
  trace.Track(tagged);
  sim_.RunUntil(100.0);
  // Samples only until the member departed at t=31.
  for (const auto& p : trace.delay_series()) EXPECT_LE(p.t, 31.0 + 1e-9);
}

TEST(LogTest, LevelsFilter) {
  using util::LogLevel;
  util::SetLogLevel(LogLevel::kError);
  EXPECT_EQ(util::GetLogLevel(), LogLevel::kError);
  // Emitting below the level is a no-op (smoke: must not crash).
  util::LogDebug("dropped");
  util::LogInfo("dropped");
  util::LogWarn("dropped");
  util::LogError("printed to stderr");
  util::SetLogLevel(LogLevel::kWarn);  // restore default
}

}  // namespace
}  // namespace omcast::metrics
