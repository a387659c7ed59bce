#include "overlay/session.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "net/topology.h"
#include "proto/min_depth.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace omcast::overlay {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  std::unique_ptr<Session> MakeSession(std::uint64_t seed = 7) {
    return std::make_unique<Session>(sim_, topology_,
                                     std::make_unique<proto::MinDepthProtocol>(),
                                     SessionParams{}, seed);
  }

  sim::Simulator sim_;
  const net::Topology& topology_ = test::TinyTopology();
};

TEST_F(SessionTest, PrepopulateReachesTargetPopulation) {
  auto session = MakeSession();
  session->Prepopulate(50);
  sim_.RunUntil(5.0);  // let any join retries settle
  EXPECT_EQ(session->alive_count(), 50);
  int rooted = 0;
  for (NodeId id : session->alive_members())
    if (session->tree().IsRooted(id)) ++rooted;
  EXPECT_EQ(rooted, 50);
  session->tree().CheckInvariants();
}

TEST_F(SessionTest, PrepopulatedAgesAreStationary) {
  auto session = MakeSession();
  session->Prepopulate(60);
  int negative_join = 0;
  for (NodeId id : session->alive_members())
    if (session->tree().Get(id).join_time < 0.0) ++negative_join;
  EXPECT_EQ(negative_join, 60);  // all carry pre-history
}

TEST_F(SessionTest, ArrivalsGrowThePopulation) {
  auto session = MakeSession();
  session->StartArrivals(1.0);  // 1 member/s, lifetimes are long-tailed
  sim_.RunUntil(50.0);
  EXPECT_GT(session->alive_count(), 5);
  EXPECT_GT(session->total_members_created(), 20);
  session->tree().CheckInvariants();
}

TEST_F(SessionTest, DepartureDisruptsDescendantsOnce) {
  auto session = MakeSession();
  // Hand-build: root <- a <- b <- c.
  const NodeId a = session->InjectMember(5.0, 1e9);
  const NodeId b = session->InjectMember(5.0, 1e9);
  const NodeId c = session->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  Tree& tree = session->tree();
  // Rearrange deterministically.
  test::Reparent(tree, b, a);
  test::Reparent(tree, c, b);
  session->DepartNow(a);
  EXPECT_FALSE(tree.Alive(a));
  EXPECT_EQ(tree.Get(b).disruptions, 1);
  EXPECT_EQ(tree.Get(c).disruptions, 1);
  // Orphans rejoined immediately (structural model).
  EXPECT_TRUE(tree.IsRooted(b));
  EXPECT_TRUE(tree.IsRooted(c));
  // Failure rejoin is not protocol overhead.
  EXPECT_EQ(tree.Get(b).reconnections, 0);
  tree.CheckInvariants();
}

TEST_F(SessionTest, DepartureFiresHooksInOrder) {
  auto session = MakeSession();
  const NodeId a = session->InjectMember(5.0, 1e9);
  const NodeId b = session->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  Tree& tree = session->tree();
  test::Reparent(tree, b, a);
  std::vector<std::string> events;
  session->hooks().AddOnDeparture([&](NodeId id) {
    EXPECT_EQ(id, a);
    // Tree must still be intact at this point.
    EXPECT_EQ(session->tree().Parent(b), a);
    events.push_back("departure");
  });
  session->hooks().AddOnDisruption([&](NodeId affected, NodeId failed) {
    EXPECT_EQ(affected, b);
    EXPECT_EQ(failed, a);
    events.push_back("disruption");
  });
  session->hooks().AddOnMemberDeparted(
      [&](const Member& m) { events.push_back("departed:" + std::to_string(m.id)); });
  session->DepartNow(a);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "departure");
  EXPECT_EQ(events[1], "disruption");
  EXPECT_EQ(events[2], "departed:" + std::to_string(a));
}

TEST_F(SessionTest, LifetimeExpiryDepartsAutomatically) {
  auto session = MakeSession();
  const NodeId a = session->InjectMember(1.0, 10.0);
  sim_.RunUntil(9.0);
  EXPECT_TRUE(session->tree().Alive(a));
  sim_.RunUntil(11.0);
  EXPECT_FALSE(session->tree().Alive(a));
  EXPECT_EQ(session->alive_count(), 0);
}

TEST_F(SessionTest, HostsAreReleasedOnDeparture) {
  auto session = MakeSession();
  // Churn many short-lived members through a small host pool.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) session->InjectMember(1.0, 5.0);
    sim_.RunUntil(sim_.now() + 20.0);
    EXPECT_EQ(session->alive_count(), 0);
  }
  EXPECT_EQ(session->total_members_created(), 250);
}

TEST_F(SessionTest, SampleCandidatesExcludesFragmentAndIncludesRoot) {
  auto session = MakeSession();
  const NodeId a = session->InjectMember(5.0, 1e9);
  const NodeId b = session->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  Tree& tree = session->tree();
  test::Reparent(tree, b, a);
  tree.Detach(a);  // fragment {a, b}
  const auto cands = session->SampleCandidates(100, a);
  EXPECT_FALSE(cands.empty());
  for (NodeId c : cands) {
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);
  }
  EXPECT_EQ(cands.front(), kRootId);  // bootstrap knows the source
  tree.Attach(kRootId, a);            // restore for invariant check
  tree.CheckInvariants();
}

TEST_F(SessionTest, SampleCandidatesSkipsUnrootedMembers) {
  auto session = MakeSession();
  const NodeId a = session->InjectMember(5.0, 1e9);
  sim_.RunUntil(1.0);
  session->tree().Detach(a);
  const auto cands = session->SampleCandidates(100, kNoNode);
  for (NodeId c : cands) EXPECT_NE(c, a);
  session->tree().Attach(kRootId, a);
}

TEST_F(SessionTest, OverlayDelayIsSumOfHops) {
  auto session = MakeSession();
  const NodeId a = session->InjectMember(5.0, 1e9);
  const NodeId b = session->InjectMember(0.5, 1e9);
  sim_.RunUntil(1.0);
  Tree& tree = session->tree();
  test::Reparent(tree, b, a);
  ASSERT_EQ(tree.Parent(a), kRootId);
  const double expected =
      session->DelayMs(kRootId, a) + session->DelayMs(a, b);
  EXPECT_NEAR(session->OverlayDelayMs(b), expected, 1e-9);
  EXPECT_GE(session->Stretch(b), 1.0 - 1e-9);
}

TEST_F(SessionTest, ForceRejoinChargesReconnection) {
  auto session = MakeSession();
  const NodeId a = session->InjectMember(1.0, 1e9);
  sim_.RunUntil(1.0);
  session->tree().Detach(a);
  session->ForceRejoin(a);
  EXPECT_EQ(session->tree().Get(a).reconnections, 1);
  sim_.RunUntil(2.0);
  EXPECT_TRUE(session->tree().IsRooted(a));
}

TEST_F(SessionTest, DeterministicGivenSeed) {
  auto run = [this](std::uint64_t seed) {
    sim::Simulator sim;
    Session session(sim, topology_, std::make_unique<proto::MinDepthProtocol>(),
                    SessionParams{}, seed);
    session.Prepopulate(40);
    session.StartArrivals(40.0 / rnd::kMeanLifetimeSeconds);
    sim.RunUntil(500.0);
    // Unsigned: the polynomial accumulator wraps by design (signed overflow
    // would be UB, and UBSan rightly trips on it).
    std::uint64_t checksum = static_cast<std::uint64_t>(session.alive_count());
    for (NodeId id : session.alive_members())
      checksum = checksum * 31 +
                 static_cast<std::uint64_t>(session.tree().Layer(id));
    return checksum;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST_F(SessionTest, RootNeverDeparts) {
  auto session = MakeSession();
  EXPECT_DEATH(session->DepartNow(kRootId), "source");
}

}  // namespace
}  // namespace omcast::overlay
