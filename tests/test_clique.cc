// CliqueProtocol tests: two-tier structure formation, the recovery-locality
// invariant (a leaf death inside a clique moves backbone_messages() by
// ZERO -- the design's headline claim), delegate succession, bounded claim
// patience (an unroutable seat dissolves its cluster instead of hanging),
// the ROST-style preempt splice under capacity saturation, counter export,
// and the chaos health gates (flash crowd on a feasible tree leaves zero
// stranded orphans, zero pending re-entries, zero wedged leases).
#include "proto/clique/clique.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "exp/chaos.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "overlay/session.h"
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
using proto::CliqueParams;
using proto::CliqueProtocol;

class CliqueTest : public ::testing::Test {
 protected:
  // Session with a retained CliqueProtocol.
  std::unique_ptr<Session> Make(CliqueParams params = {},
                                std::uint64_t seed = 3) {
    auto protocol = std::make_unique<CliqueProtocol>(params);
    clique_ = protocol.get();
    return std::make_unique<Session>(sim_, topology_, std::move(protocol),
                                     SessionParams{}, seed);
  }

  // 20 equal-bandwidth members: two clusters (max_cluster_size 12), no
  // stability challenges (equal outdegree never beats the margin), ample
  // in-cluster capacity so leaf recovery always succeeds locally.
  std::vector<NodeId> BuildTwoCliques(Session& s) {
    std::vector<NodeId> members;
    for (int i = 0; i < 20; ++i) members.push_back(s.InjectMember(3.0, 1e9));
    sim_.RunUntil(5.0);
    return members;
  }

  bool IsDelegate(NodeId id) const {
    const int cid = clique_->ClusterOf(id);
    return cid >= 0 && clique_->DelegateOf(cid) == id;
  }

  sim::Simulator sim_;
  const net::Topology& topology_ = test::TinyTopology();
  CliqueProtocol* clique_ = nullptr;
};

TEST_F(CliqueTest, TwoTierStructureFormsUnderSteadyJoins) {
  auto s = Make();
  const std::vector<NodeId> members = BuildTwoCliques(*s);
  // 20 members under a 12-cap cluster size: at least two cliques.
  EXPECT_GE(clique_->active_clusters(), 2);
  EXPECT_GE(clique_->clusters_formed(), 2);
  const Tree& tree = s->tree();
  // Backbone tier: every root child is a delegate, never a leaf.
  for (NodeId c : tree.ChildrenOf(kRootId)) {
    EXPECT_TRUE(IsDelegate(c)) << "root child " << c << " is not a delegate";
  }
  for (NodeId m : members) {
    EXPECT_TRUE(tree.IsRooted(m));
    const int cid = clique_->ClusterOf(m);
    ASSERT_GE(cid, 0);
    // Cluster tier: a non-delegate hangs under a same-cluster parent, so
    // each clique is a contiguous subtree rooted at its delegate.
    if (!IsDelegate(m)) {
      EXPECT_EQ(clique_->ClusterOf(tree.Parent(m)), cid) << "member " << m;
    }
  }
  s->tree().CheckInvariants();
}

// The recovery-locality invariant the bake-off is built around: a leaf
// death inside a clique is repaired entirely by the clique -- the backbone
// message counter must not move.
TEST_F(CliqueTest, LeafFailureIsInvisibleToTheBackbone) {
  auto s = Make();
  BuildTwoCliques(*s);
  const Tree& tree = s->tree();
  // Kill a non-delegate that actually has children, so the death orphans a
  // real subtree and forces recovery work (not just a silent leaf removal).
  NodeId victim = kNoNode;
  for (NodeId m : s->alive_members()) {
    if (m == kRootId || IsDelegate(m)) continue;
    if (tree.ChildCount(m) > 0) {
      victim = m;
      break;
    }
  }
  ASSERT_NE(victim, kNoNode) << "no non-delegate interior member to kill";
  std::vector<NodeId> orphans;
  for (NodeId o : tree.ChildrenOf(victim)) orphans.push_back(o);
  ASSERT_FALSE(orphans.empty());
  const int cid = clique_->ClusterOf(victim);
  const long backbone_before = clique_->backbone_messages();
  const long local_before = clique_->local_recoveries();

  s->DepartNow(victim);
  sim_.RunUntil(sim_.now() + 10.0);

  EXPECT_EQ(clique_->backbone_messages(), backbone_before)
      << "a leaf failure leaked control traffic onto the backbone tier";
  EXPECT_GT(clique_->local_recoveries(), local_before);
  for (NodeId o : orphans) {
    EXPECT_TRUE(tree.IsRooted(o));
    EXPECT_EQ(clique_->ClusterOf(o), cid) << "orphan " << o << " changed clique";
  }
  for (NodeId m : s->alive_members()) EXPECT_TRUE(tree.IsRooted(m));
  s->tree().CheckInvariants();
}

TEST_F(CliqueTest, DelegateDeathPromotesSuccessorFromWithinTheClique) {
  auto s = Make();
  BuildTwoCliques(*s);
  const Tree& tree = s->tree();
  // Pick any delegate and snapshot its clique's membership.
  NodeId dead = kNoNode;
  for (NodeId c : tree.ChildrenOf(kRootId)) {
    dead = c;
    break;
  }
  ASSERT_NE(dead, kNoNode);
  ASSERT_TRUE(IsDelegate(dead));
  const int cid = clique_->ClusterOf(dead);
  std::vector<NodeId> clique_members;
  for (NodeId m : s->alive_members())
    if (m != dead && clique_->ClusterOf(m) == cid) clique_members.push_back(m);
  ASSERT_FALSE(clique_members.empty());
  const long promotions_before = clique_->delegates_promoted();
  const long reattaches_before = clique_->backbone_reattaches();

  s->DepartNow(dead);
  sim_.RunUntil(sim_.now() + 10.0);

  // The seat was refilled from inside the clique and carried it back to the
  // backbone; only the successor's claim touched the backbone tier.
  EXPECT_GT(clique_->delegates_promoted(), promotions_before);
  EXPECT_GT(clique_->backbone_reattaches(), reattaches_before);
  const NodeId successor = clique_->DelegateOf(cid);
  ASSERT_NE(successor, kNoNode);
  EXPECT_NE(successor, dead);
  EXPECT_TRUE(std::find(clique_members.begin(), clique_members.end(),
                        successor) != clique_members.end())
      << "the successor came from outside the clique";
  EXPECT_TRUE(tree.IsRooted(successor));
  for (NodeId m : s->alive_members()) EXPECT_TRUE(tree.IsRooted(m));
  s->tree().CheckInvariants();
}

// Bounded claim patience: when a promoted seat cannot root itself on the
// backbone within promotion_timeout_s, its cluster dissolves instead of
// dangling off an unroutable delegate forever.
TEST_F(CliqueTest, UnroutableSeatDissolvesItsClusterAfterTheTimeout) {
  CliqueParams p;
  p.max_cluster_size = 2;
  p.promotion_timeout_s = 5.0;
  p.election_period_s = 1e6;  // keep maintenance rounds out of the window
  auto s = Make(p);
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  // Hand-grown saturated backbone: root(1) <- A(delegate, cap 3), with
  // delegates B and C claiming seats under A once their cliques cap out.
  const NodeId a = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId x = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(2.0);
  const NodeId b = s->InjectMember(1.0, 1e9);
  sim_.RunUntil(3.0);
  s->InjectMember(0.5, 1e9);  // fills B's clique (and B's only slot)
  sim_.RunUntil(4.0);
  const NodeId c = s->InjectMember(1.0, 1e9);
  sim_.RunUntil(5.0);
  s->InjectMember(0.5, 1e9);  // fills C's clique (and C's only slot)
  sim_.RunUntil(6.0);
  ASSERT_EQ(tree.Parent(a), kRootId);
  ASSERT_TRUE(IsDelegate(b));
  ASSERT_TRUE(IsDelegate(c));
  ASSERT_EQ(clique_->active_clusters(), 3);
  const long dissolved_before = clique_->clusters_dissolved();

  // A's death orphans three delegates but frees exactly one backbone slot:
  // one claim lands, the other two seats stay off the backbone until their
  // patience runs out and their cliques disband.
  s->DepartNow(a);
  sim_.RunUntil(sim_.now() + 3.0 * p.promotion_timeout_s);

  EXPECT_GE(clique_->clusters_dissolved(), dissolved_before + 2);
  int rooted_seats = 0;
  for (NodeId seat : {x, b, c})
    if (tree.IsRooted(seat)) ++rooted_seats;
  EXPECT_EQ(rooted_seats, 1) << "exactly one claim can win the freed slot";
  s->tree().CheckInvariants();
}

// Capacity saturation: with every clique full and the backbone refusing new
// seats, a joiner that can host children splices into a strictly-weaker
// childless leaf's slot and adopts it (the ROST preempt-join move), instead
// of being stranded by a full tree.
TEST_F(CliqueTest, PreemptSpliceAdmitsStrongJoinerIntoSaturatedTree) {
  CliqueParams p;
  p.election_period_s = 1e6;
  auto s = Make(p);
  Tree& tree = s->tree();
  tree.SetCapacity(kRootId, 1);
  // root(1) <- A(cap 2) <- {B, C}: free-riders fill the only clique's
  // capacity, so the tree has zero spare slots anywhere.
  const NodeId a = s->InjectMember(2.0, 1e9);
  sim_.RunUntil(1.0);
  const NodeId b = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(2.0);
  const NodeId c = s->InjectMember(0.5, 1e9);
  sim_.RunUntil(3.0);
  ASSERT_EQ(tree.Parent(b), a);
  ASSERT_EQ(tree.Parent(c), a);
  const long overflow_before = clique_->overflow_attaches();

  const NodeId strong = s->InjectMember(3.0, 1e9);
  sim_.RunUntil(4.0);

  // The joiner took a free-rider's slot under A and adopted it.
  EXPECT_EQ(tree.Parent(strong), a);
  EXPECT_TRUE(tree.IsRooted(strong));
  const NodeId displaced = tree.Parent(b) == strong ? b : c;
  EXPECT_EQ(tree.Parent(displaced), strong);
  EXPECT_EQ(tree.Get(displaced).reconnections, 1);
  EXPECT_GT(clique_->overflow_attaches(), overflow_before);
  EXPECT_EQ(clique_->ClusterOf(strong), clique_->ClusterOf(a));
  for (NodeId m : s->alive_members()) EXPECT_TRUE(tree.IsRooted(m));
  s->tree().CheckInvariants();
}

TEST_F(CliqueTest, ExportCountersPublishesTheCliqueNamespace) {
  auto s = Make();
  BuildTwoCliques(*s);
  obs::Registry reg;
  clique_->ExportCounters(reg);
  EXPECT_GE(reg.CounterValue("clique.clusters_formed"), 2.0);
  EXPECT_GT(reg.CounterValue("clique.local_messages"), 0.0);
  EXPECT_GT(reg.CounterValue("clique.backbone_messages"), 0.0);
  EXPECT_EQ(reg.CounterValue("clique.clusters_dissolved"), 0.0);
  // The gauge mirrors the accessor.
  const auto flat = reg.Flatten();
  const auto it = flat.find("clique.active_clusters");
  ASSERT_NE(it, flat.end());
  EXPECT_EQ(it->second, static_cast<double>(clique_->active_clusters()));
}

// The bake-off's chaos health gates, pinned as a test: a flash crowd on a
// capacity-feasible tree must leave no stranded orphans, no pending
// re-entries, and (trivially, the protocol holds no locks) no wedged
// leases.
TEST(CliqueChaos, FlashCrowdKeepsTheHealthGates) {
  const net::Topology& topology = test::TinyTopology();
  exp::ChaosConfig c;
  c.algorithm = exp::Algorithm::kClique;
  c.population = 60;
  c.warmup_s = 300.0;
  c.stream_s = 60.0;
  c.drain_s = 60.0;
  c.seed = 21;
  c.fault.loss_rate = 0.02;
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.02;
  // Feasible but not star-shaped: the BoundedPareto bandwidth mix is mostly
  // capacity-0 free-riders, so the root must underwrite enough fan-out for
  // the post-flash rebuild (the bake-off grid uses the same floor).
  c.session.root_bandwidth = 16.0;
  c.flash_at_s = 10.0;
  c.flash_departures = 12;
  const exp::ChaosResult r = RunChaosScenario(topology, c);
  EXPECT_EQ(r.flash_members_killed, 12);
  EXPECT_EQ(r.unrooted_members, 0);
  EXPECT_EQ(r.reentries_pending, 0);
  EXPECT_EQ(r.registry.at("chaos.wedged_leases"), 0);
  EXPECT_GT(r.final_population, 0);
  // The protocol-agnostic export path carried the clique counters into the
  // chaos registry snapshot.
  ASSERT_EQ(r.registry.count("clique.local_recoveries"), 1u);
  EXPECT_GT(r.registry.at("clique.clusters_formed"), 0.0);
  EXPECT_EQ(r.registry.count("rost.switches"), 0u);
}

}  // namespace
}  // namespace omcast
