// Recovery-group selection strategies (paper Section 4.1 vs the baselines
// of Section 6): MLC (Algorithm 1 on the member's partial tree view) or
// uniform-random from the member's known set. Either way the group is
// ordered by network distance from the requester, which is the order the
// repair chain is walked in. Also the repair knobs and residual bandwidths
// every stream model shares: the outage models evaluate a chain
// analytically, the packet model serves it packet by packet, but all of
// them walk the same chain under the same RepairParams.
#pragma once

#include <vector>

#include "core/cer/recovery.h"
#include "overlay/session.h"
#include "rand/rng.h"

namespace omcast::core {

enum class GroupSelection { kMlc, kRandom };

struct RepairParams {
  double packet_rate = 10.0;  // packets per second
  double buffer_s = 5.0;      // playback buffer (50 packets by default)
  double detect_s = 5.0;      // parent-failure detection time
  int recovery_group_size = 3;
  GroupSelection selection = GroupSelection::kMlc;
  RecoveryMode mode = RecoveryMode::kCooperative;
  // Residual (helping) bandwidth per member, packets per second.
  double residual_lo_pkts = 0.0;
  double residual_hi_pkts = 9.0;
};

// Aborts (util::Check) on nonsensical repair knobs: non-positive rate or
// buffer, negative detection time, empty recovery group, inverted or
// negative residual range.
void ValidateRepairParams(const RepairParams& params);

// Per-node residual bandwidth as a fraction of the stream rate, drawn
// uniform in [residual_lo_pkts, residual_hi_pkts] the first time a node is
// asked for it and fixed afterwards. Draws come from the caller's RNG, so
// each stream model keeps its own draw stream.
class ResidualBandwidth {
 public:
  explicit ResidualBandwidth(const RepairParams& params) : params_(params) {}

  double Fraction(overlay::NodeId id, rnd::Rng& rng);

 private:
  RepairParams params_;
  std::vector<double> fraction_;  // per node; -1 == not drawn yet
};

// Picks up to `k` recovery members for `requester` from its gossip view
// (session.params().candidate_sample_size known members), ordered nearest
// first. The requester's own fragment is excluded -- its descendants share
// all of its losses.
std::vector<overlay::NodeId> SelectRecoveryGroup(overlay::Session& session,
                                                 overlay::NodeId requester,
                                                 int k, GroupSelection selection);

// One hop of an orphan's repair request along its recovery group.
struct ChainHop {
  overlay::NodeId node = overlay::kNoNode;
  // False when the node is dead, not rooted, or inside the failed member's
  // subtree (disrupted by the same failure): it NACKs and forwards.
  bool usable = false;
  // One-way latency from the previous hop (the orphan for the first), s.
  double hop_latency_s = 0.0;
};

// The repair chain `orphan` walks after `failed` departed: `group` in its
// nearest-first order, each node marked usable or not, with its hop
// latency. Makes no RNG draws.
std::vector<ChainHop> BuildRecoveryChain(const overlay::Session& session,
                                         overlay::NodeId orphan,
                                         overlay::NodeId failed,
                                         const std::vector<overlay::NodeId>& group);

}  // namespace omcast::core
