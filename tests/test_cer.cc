// Tests for the CER building blocks: partial-tree reconstruction, MLC group
// selection (Algorithm 1), and loss-correlation accounting.
#include <gtest/gtest.h>

#include "core/cer/mlc.h"
#include "core/cer/partial_tree.h"
#include "overlay/tree.h"
#include "rand/rng.h"

namespace omcast::core {
namespace {

using overlay::kRootId;
using overlay::NodeId;
using overlay::Tree;

// Builds a complete k-ary tree of `depth` layers below the root; returns
// all created ids layer by layer.
std::vector<std::vector<NodeId>> BuildKaryTree(Tree& tree, int arity,
                                               int depth) {
  std::vector<std::vector<NodeId>> layers = {{kRootId}};
  int host = 1;
  for (int d = 1; d <= depth; ++d) {
    std::vector<NodeId> level;
    for (NodeId parent : layers.back()) {
      for (int i = 0; i < arity; ++i) {
        const NodeId c = tree.CreateMember(host++, static_cast<double>(arity),
                                           0.0, 1e9);
        tree.Attach(parent, c);
        level.push_back(c);
      }
    }
    layers.push_back(std::move(level));
  }
  return layers;
}

TEST(PartialTree, BuildFromSampleSplicesAncestors) {
  Tree tree(0, 100.0);
  const auto layers = BuildKaryTree(tree, 2, 3);  // 2+4+8 nodes
  // Know only two leaves from different layer-1 subtrees.
  const NodeId leaf_a = layers[3][0];
  const NodeId leaf_b = layers[3][7];
  const PartialTree view = PartialTree::Build(tree, {leaf_a, leaf_b});
  // Root + 2 chains of 3 = 7 nodes.
  EXPECT_EQ(view.nodes().size(), 7u);
  ASSERT_GE(view.root_index(), 0);
  const auto levels = view.Levels();
  ASSERT_EQ(levels.size(), 4u);
  EXPECT_EQ(levels[0].size(), 1u);
  EXPECT_EQ(levels[1].size(), 2u);
  EXPECT_NE(view.IndexOf(leaf_a), -1);
  EXPECT_NE(view.IndexOf(leaf_b), -1);
}

TEST(PartialTree, SharedAncestorsAppearOnce) {
  Tree tree(0, 100.0);
  const auto layers = BuildKaryTree(tree, 2, 3);
  // Two leaves under the same layer-1 subtree share two ancestors.
  const PartialTree view =
      PartialTree::Build(tree, {layers[3][0], layers[3][1]});
  // root, l1, l2, two leaves = 5 (l2 shared: leaves 0,1 share parent).
  EXPECT_EQ(view.nodes().size(), 5u);
}

TEST(PartialTree, SkipsUnrootedEntries) {
  Tree tree(0, 100.0);
  const auto layers = BuildKaryTree(tree, 2, 2);
  tree.Detach(layers[1][0]);  // whole left subtree floats
  const PartialTree view =
      PartialTree::Build(tree, {layers[2][0], layers[2][3]});
  // Only the right chain got in: root + 2 nodes.
  EXPECT_EQ(view.nodes().size(), 3u);
  tree.Attach(kRootId, layers[1][0]);
}

TEST(PartialTree, DescendantsAreTransitive) {
  Tree tree(0, 100.0);
  const auto layers = BuildKaryTree(tree, 2, 3);
  std::vector<NodeId> all_leaves = layers[3];
  const PartialTree view = PartialTree::Build(tree, all_leaves);
  const int l1 = view.IndexOf(layers[1][0]);
  ASSERT_NE(l1, -1);
  // Left layer-1 subtree contains 2 mid nodes + 4 leaves.
  EXPECT_EQ(view.Descendants(l1).size(), 6u);
}

TEST(Mlc, PicksRootsFromDistinctSubtrees) {
  Tree tree(0, 100.0);
  const auto layers = BuildKaryTree(tree, 3, 3);  // widths 3, 9, 27
  rnd::Rng rng(7);
  // All 27 leaves known. K = 5: Li should be level 1 (|3| < 5 <= |9|).
  const PartialTree view = PartialTree::Build(tree, layers[3]);
  const auto group = FindMlcGroup(view, 5, overlay::kNoNode, rng);
  ASSERT_EQ(group.size(), 5u);
  // Pairwise correlation: group members come from >= 5 distinct level-2
  // subtrees spread over 3 level-1 subtrees, so no pair shares more than
  // the first two edges, and at most ceil(5/3) pairs share even that.
  for (std::size_t i = 0; i < group.size(); ++i)
    for (std::size_t j = i + 1; j < group.size(); ++j)
      EXPECT_LE(tree.SharedPathEdges(group[i], group[j]), 2);
}

TEST(Mlc, GroupMembersAreDistinct) {
  Tree tree(0, 100.0);
  const auto layers = BuildKaryTree(tree, 3, 3);
  rnd::Rng rng(11);
  const PartialTree view = PartialTree::Build(tree, layers[3]);
  for (int k = 1; k <= 8; ++k) {
    const auto group = FindMlcGroup(view, k, overlay::kNoNode, rng);
    std::set<NodeId> distinct(group.begin(), group.end());
    EXPECT_EQ(distinct.size(), group.size()) << "k=" << k;
  }
}

TEST(Mlc, ExcludesRequester) {
  Tree tree(0, 100.0);
  const auto layers = BuildKaryTree(tree, 2, 2);
  rnd::Rng rng(3);
  const NodeId me = layers[2][0];
  const PartialTree view = PartialTree::Build(tree, layers[2]);
  for (int trial = 0; trial < 50; ++trial) {
    const auto group = FindMlcGroup(view, 3, me, rng);
    for (NodeId g : group) EXPECT_NE(g, me);
  }
}

TEST(Mlc, HandlesGroupLargerThanTree) {
  Tree tree(0, 100.0);
  const auto layers = BuildKaryTree(tree, 2, 1);  // just 2 children
  rnd::Rng rng(5);
  const PartialTree view = PartialTree::Build(tree, layers[1]);
  const auto group = FindMlcGroup(view, 10, overlay::kNoNode, rng);
  EXPECT_LE(group.size(), 2u);
  EXPECT_GE(group.size(), 1u);
}

TEST(Mlc, EmptyViewYieldsEmptyGroup) {
  Tree tree(0, 100.0);
  rnd::Rng rng(5);
  const PartialTree view = PartialTree::Build(tree, {});
  EXPECT_TRUE(FindMlcGroup(view, 3, overlay::kNoNode, rng).empty());
}

TEST(Mlc, BeatsRandomSelectionOnLossCorrelation) {
  // The headline property: on a deep skewed tree, Algorithm 1 yields far
  // lower total pairwise loss correlation than uniform-random picks.
  Tree tree(0, 100.0);
  rnd::Rng build_rng(17);
  std::vector<NodeId> all;
  int host = 1;
  // A skewed tree: long chains under few top-level subtrees.
  for (int chain = 0; chain < 4; ++chain) {
    NodeId cur = kRootId;
    for (int depth = 0; depth < 25; ++depth) {
      const NodeId c = tree.CreateMember(host++, 3.0, 0.0, 1e9);
      tree.Attach(cur, c);
      all.push_back(c);
      cur = c;
    }
  }
  rnd::Rng rng(23);
  const PartialTree view = PartialTree::Build(tree, all);
  long mlc_total = 0, random_total = 0;
  const int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    mlc_total +=
        TotalLossCorrelation(tree, FindMlcGroup(view, 4, overlay::kNoNode, rng));
    random_total += TotalLossCorrelation(
        tree, rng.SampleWithoutReplacement(all, 4));
  }
  EXPECT_LT(mlc_total, random_total / 2);
}

TEST(LossCorrelation, MatchesHandComputedValues) {
  Tree tree(0, 100.0);
  const auto layers = BuildKaryTree(tree, 2, 2);
  // Leaves 0 and 1 share their parent chain (1 edge beyond root... exactly:
  // root->p edge). w(leaf0, leaf1) = 1; across subtrees = 0.
  EXPECT_EQ(TotalLossCorrelation(
                tree, {layers[2][0], layers[2][1]}),
            1);
  EXPECT_EQ(TotalLossCorrelation(
                tree, {layers[2][0], layers[2][3]}),
            0);
  // Triple: {leaf0, leaf1, leaf3}: pairs (0,1)=1, (0,3)=0, (1,3)=0.
  EXPECT_EQ(TotalLossCorrelation(
                tree, {layers[2][0], layers[2][1], layers[2][3]}),
            1);
}

}  // namespace
}  // namespace omcast::core

#include <memory>

#include "core/cer/group.h"
#include "net/topology.h"
#include "proto/min_depth.h"
#include "sim/simulator.h"

namespace omcast::core {
namespace {

TEST(RecoveryGroup, OrderedByNetworkDistanceAndExcludesRequester) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  sim::Simulator sim;
  overlay::Session session(sim, topology,
                           std::make_unique<proto::MinDepthProtocol>(),
                           overlay::SessionParams{}, 21);
  session.Prepopulate(300);
  sim.RunUntil(10.0);
  const overlay::NodeId requester = session.alive_members().front();
  for (const auto selection : {GroupSelection::kMlc, GroupSelection::kRandom}) {
    const auto group = SelectRecoveryGroup(session, requester, 5, selection);
    ASSERT_GE(group.size(), 2u);
    double prev = -1.0;
    for (const overlay::NodeId g : group) {
      EXPECT_NE(g, requester);
      EXPECT_NE(g, overlay::kRootId);
      const double d = session.DelayMs(requester, g);
      EXPECT_GE(d, prev);  // nearest-first: the repair chain order
      prev = d;
    }
  }
}

TEST(RecoveryGroup, MembersAreRootedAndAlive) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  sim::Simulator sim;
  overlay::Session session(sim, topology,
                           std::make_unique<proto::MinDepthProtocol>(),
                           overlay::SessionParams{}, 23);
  session.Prepopulate(200);
  session.StartArrivals(200.0 / rnd::kMeanLifetimeSeconds);
  sim.RunUntil(2000.0);
  const overlay::NodeId requester = session.alive_members().front();
  const auto group =
      SelectRecoveryGroup(session, requester, 4, GroupSelection::kMlc);
  for (const overlay::NodeId g : group) {
    EXPECT_TRUE(session.tree().Alive(g));
    EXPECT_TRUE(session.tree().IsRooted(g));
  }
}

TEST(RecoveryChain, MarksUnusableHopsAndChainsLatencies) {
  rnd::Rng topo_rng(1);
  const net::Topology topology =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  sim::Simulator sim;
  overlay::Session session(sim, topology,
                           std::make_unique<proto::MinDepthProtocol>(),
                           overlay::SessionParams{}, 25);
  session.Prepopulate(200);
  overlay::Tree& tree = session.tree();
  // A failed member with two children, and four leaves outside its subtree.
  overlay::NodeId failed = overlay::kNoNode;
  for (const overlay::NodeId id : session.alive_members())
    if (id != overlay::kRootId && tree.ChildCount(id) >= 2) failed = id;
  ASSERT_NE(failed, overlay::kNoNode);
  std::vector<overlay::NodeId> leaves;
  for (const overlay::NodeId id : session.alive_members())
    if (tree.ChildCount(id) == 0 && !tree.IsInSubtreeOf(id, failed))
      leaves.push_back(id);
  ASSERT_GE(leaves.size(), 4u);
  const overlay::NodeId orphan = tree.Children(failed)[0];
  const overlay::NodeId inside = tree.Children(failed)[1];
  const overlay::NodeId dead = leaves[1];
  const overlay::NodeId unrooted = leaves[2];
  tree.MarkDead(dead);
  tree.Detach(unrooted);
  const std::vector<overlay::NodeId> group = {leaves[0], inside, dead,
                                              unrooted, leaves[3]};

  const std::vector<ChainHop> chain =
      BuildRecoveryChain(session, orphan, failed, group);
  ASSERT_EQ(chain.size(), group.size());
  const bool usable[] = {true, false, false, false, true};
  overlay::NodeId prev = orphan;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(chain[i].node, group[i]);
    EXPECT_EQ(chain[i].usable, usable[i]) << "hop " << i;
    EXPECT_EQ(chain[i].hop_latency_s, session.DelayMs(prev, group[i]) / 1000.0);
    prev = group[i];
  }
}

}  // namespace
}  // namespace omcast::core
