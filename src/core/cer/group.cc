#include "core/cer/group.h"

#include <algorithm>

#include "core/cer/mlc.h"
#include "core/cer/partial_tree.h"
#include "util/check.h"

namespace omcast::core {

using overlay::NodeId;
using overlay::Session;

void ValidateRepairParams(const RepairParams& params) {
  util::Check(params.packet_rate > 0.0, "packet rate must be positive");
  util::Check(params.buffer_s > 0.0, "playback buffer must be positive");
  util::Check(params.detect_s >= 0.0, "detection time cannot be negative");
  util::Check(params.recovery_group_size >= 1,
              "recovery group needs at least one member");
  util::Check(params.residual_lo_pkts >= 0.0,
              "residual bandwidth cannot be negative");
  util::Check(params.residual_hi_pkts >= params.residual_lo_pkts,
              "residual bandwidth range must be ordered");
}

double ResidualBandwidth::Fraction(NodeId id, rnd::Rng& rng) {
  if (fraction_.size() <= static_cast<std::size_t>(id))
    fraction_.resize(static_cast<std::size_t>(id) + 1, -1.0);
  double& f = fraction_[static_cast<std::size_t>(id)];
  if (f < 0.0)
    f = rng.Uniform(params_.residual_lo_pkts, params_.residual_hi_pkts) /
        params_.packet_rate;
  return f;
}

namespace {

// Deep-tier consistency audit of a selected recovery group: the repair
// protocol addresses stripes (n mod 100) to these members, so a duplicate,
// the requester itself, the source, or an unusable (dead / detached) member
// would corrupt the repair accounting downstream.
void AuditRecoveryGroup(Session& session, NodeId requester, int k,
                        const std::vector<NodeId>& group) {
  if constexpr (!omcast::util::kDcheckEnabled) {
    (void)session;
    (void)requester;
    (void)k;
    (void)group;
    return;
  }
  OMCAST_DCHECK(static_cast<int>(group.size()) <= k,
                "recovery group must not exceed the requested size");
  std::vector<NodeId> sorted = group;
  std::sort(sorted.begin(), sorted.end());
  OMCAST_DCHECK(std::adjacent_find(sorted.begin(), sorted.end()) ==
                    sorted.end(),
                "recovery group members must be distinct");
  for (NodeId id : group) {
    OMCAST_DCHECK(id != requester,
                  "a member must not recover from itself");
    OMCAST_DCHECK(id != overlay::kRootId,
                  "the source is never a repair peer");
    OMCAST_DCHECK(session.tree().Alive(id),
                  "recovery group members must be alive");
    OMCAST_DCHECK(session.tree().IsRooted(id),
                  "recovery group members must be attached to the tree");
  }
  // The request walk visits members in distance order (nearest first).
  for (std::size_t i = 1; i < group.size(); ++i)
    OMCAST_DCHECK(session.DelayMs(requester, group[i - 1]) <=
                      session.DelayMs(requester, group[i]),
                  "recovery group must be sorted by network distance");
}

}  // namespace

std::vector<NodeId> SelectRecoveryGroup(Session& session, NodeId requester,
                                        int k, GroupSelection selection) {
  std::vector<NodeId> known = session.SampleCandidates(
      session.params().candidate_sample_size, requester);
  std::erase(known, requester);
  std::erase(known, overlay::kRootId);  // the source streams, it is not a
                                        // residual-bandwidth repair peer

  std::vector<NodeId> group;
  if (selection == GroupSelection::kMlc) {
    const PartialTree view = PartialTree::Build(session.tree(), known);
    group = FindMlcGroup(view, k, requester, session.rng());
  } else {
    group = session.rng().SampleWithoutReplacement(
        std::move(known), static_cast<std::size_t>(k));
  }
  std::erase(group, overlay::kRootId);

  std::sort(group.begin(), group.end(), [&](NodeId a, NodeId b) {
    return session.DelayMs(requester, a) < session.DelayMs(requester, b);
  });
  AuditRecoveryGroup(session, requester, k, group);
  return group;
}

std::vector<ChainHop> BuildRecoveryChain(const Session& session, NodeId orphan,
                                         NodeId failed,
                                         const std::vector<NodeId>& group) {
  const overlay::Tree& tree = session.tree();
  std::vector<ChainHop> chain;
  chain.reserve(group.size());
  NodeId prev = orphan;
  for (NodeId g : group) {
    const bool usable = tree.Alive(g) && tree.InTree(g) &&
                        !tree.IsInSubtreeOf(g, failed) && tree.IsRooted(g);
    chain.push_back({g, usable, session.DelayMs(prev, g) / 1000.0});
    prev = g;
  }
  return chain;
}

}  // namespace omcast::core
