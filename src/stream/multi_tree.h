// Multiple-tree (MDC) extension -- the paper's future-work direction.
//
// The paper argues for the single-tree + CER design but notes that
// multiple-tree approaches with multiple description coding (Padmanabhan et
// al.'s CoopNet, FatNemo) attack the same failure-resilience problem with
// redundancy instead of recovery: each member joins K independent trees,
// the stream is coded into K descriptions of rate 1/K, and playback only
// stalls when *every* description is interrupted at once.
//
// MultiTreeStream runs K parallel overlay sessions over the same physical
// topology with a mirrored workload: one arrival process draws each
// member's bandwidth and lifetime once and injects it into all K trees with
// bandwidth/K (the member's uplink is split across descriptions). Outages
// are tracked as real time intervals per (member, tree):
//
//   * a member is DEGRADED while at least one description is interrupted
//     (reduced quality under MDC);
//   * it STALLS while all K are interrupted simultaneously.
//
// With K = 1 the same accounting measures the single-tree baseline, and
// `cer_recovery = true` shortens each outage interval to the portion CER's
// striped repair cannot cover (StreamingLayer's SimulateOrphanOutage), so
// redundancy-vs-recovery is compared under one metric: this is the
// outage model with intervals. See bench/ext_multi_tree.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/topology.h"
#include "overlay/session.h"
#include "rand/distributions.h"
#include "rand/rng.h"
#include "sim/simulator.h"
#include "stream/streaming.h"
#include "util/stats.h"

namespace omcast::stream {

// The repair and outage knobs (detection, rejoin, buffer, rate, CER group)
// are the StreamParams{} defaults, shared with StreamingLayer.
struct MultiTreeParams {
  int trees = 2;  // K descriptions
  // Repair the outage with CER (StreamParams{} group of 3, MLC, striped).
  // Typically used with trees == 1 to model the paper's scheme.
  bool cer_recovery = false;
  // Per-tree overlay protocol factory (called once per description tree);
  // null selects MinDepthProtocol. Routed through the protocol-agnostic
  // overlay::Protocol seam so bench/ext_multi_tree can pit any algorithm's
  // trees against each other (e.g. exp::MakeProtocol-built ROST or clique).
  std::function<std::unique_ptr<overlay::Protocol>()> make_protocol;
};

class MultiTreeStream {
 public:
  MultiTreeStream(sim::Simulator& simulator, const net::Topology& topology,
                  MultiTreeParams params, std::uint64_t seed);

  // Starts the mirrored arrival process at `rate_per_s` members/second.
  void StartArrivals(double rate_per_s);
  void StopArrivals();

  // Computes the per-member stall/degraded ratios for every member whose
  // playback overlapped [begin, end]. Call once, after the run.
  void Finalize(double begin_s, double end_s);

  // Fraction of viewing time with ALL descriptions interrupted.
  const util::RunningStat& stall_ratio() const { return stall_; }
  // Fraction of viewing time with at least one description interrupted.
  const util::RunningStat& degraded_ratio() const { return degraded_; }

  int members_created() const { return static_cast<int>(members_.size()); }
  long outages_recorded() const { return outages_; }
  // Average live population across the K trees at Finalize time.
  double average_population() const;

  // A closed outage window (public: shared with the merge helper).
  struct Interval {
    double begin = 0.0;
    double end = 0.0;
  };

 private:
  struct MemberRecord {
    double join = 0.0;
    double depart = 0.0;
    // Outage intervals per tree.
    std::vector<std::vector<Interval>> outages;
  };

  void Arrive();
  void RecordOutage(int tree, overlay::NodeId session_node, double begin,
                    double end);

  sim::Simulator& sim_;
  MultiTreeParams params_;
  rnd::Rng rng_;
  rnd::BoundedPareto bandwidth_dist_;
  rnd::LognormalDist lifetime_dist_;
  std::vector<std::unique_ptr<overlay::Session>> sessions_;
  // sessions_[k]'s NodeId -> index into members_ (dense; node ids are
  // assigned in lockstep across the mirrored sessions).
  std::vector<std::vector<int>> node_to_member_;
  std::vector<MemberRecord> members_;
  std::vector<core::ResidualBandwidth> residual_;  // per tree
  util::RunningStat stall_;
  util::RunningStat degraded_;
  bool arrivals_on_ = false;
  double arrival_rate_ = 0.0;
  long outages_ = 0;
};

}  // namespace omcast::stream
