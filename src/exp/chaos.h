// Chaos harness: runs a streaming session with every control path routed
// through a lossy FaultPlane while injecting correlated failures, then
// checks the hardening held up.
//
// The fault model attacks exactly the assumptions the oracle experiments
// make for free:
//
//   * heartbeat detection replaces the fixed detect/rejoin oracle, so
//     orphans discover parent deaths through (lossy) silence;
//   * ROST's lock handshake runs over messages with leases and timeouts,
//     so lost releases or dead holders cannot wedge the tree;
//   * gossip slices and ELN notifications can be lost or delayed;
//   * injectable failure patterns: one correlated stub-domain kill (every
//     member hosted in the domain dies at once), a flash crowd of
//     simultaneous random departures, and a recovery-group member killed
//     mid-repair while it is serving CER stripes;
//   * degraded-regime scenario family: a flash-crowd JOIN storm, an
//     ISP-level episodic-loss outage over one stub domain's links, and a
//     reconnect storm (members depart and re-enter through the session's
//     bounded-retry re-entry path), scored by the frame-playback QoE
//     metrics (degraded-time fraction, recovery-to-cadence latency, decode
//     stalls).
//
// Everything is seeded: the same config produces bit-identical runs (the
// chaos regression tests replay schedules and compare rolling-hash traces).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "overlay/heartbeat.h"
#include "sim/fault_plane.h"
#include "stream/packet_sim.h"

namespace omcast::exp {

// RunConfig plus the stream, fault-plane and injection knobs. Here
// warmup_s is the equilibration before the stream starts, the recovery
// curves span stream start through the end of the settle window, and the
// runner sets session.external_failure_detection from use_heartbeats.
struct ChaosConfig : RunConfig {
  ChaosConfig() {
    population = 200;
    warmup_s = 600.0;
  }

  double stream_s = 120.0;    // packet-level stream length
  // Settling time after the stream: in-flight leases expire or release,
  // orphans finish rejoining. Should exceed rost.lock_lease_s and the
  // heartbeat suspicion timeout.
  double drain_s = 120.0;
  // Churn never stops, so a member whose parent died seconds before the
  // drain ends is legitimately (still) unrooted. Members found unrooted at
  // drain end get this long -- detection plus rejoin retries -- to recover;
  // only the ones still adrift afterwards count as failures.
  double settle_s = 30.0;
  Algorithm algorithm = Algorithm::kRost;

  sim::FaultPlaneParams fault;  // loss/dup/jitter for every control message

  bool use_heartbeats = true;  // heartbeat detection instead of the oracle
  overlay::HeartbeatParams heartbeat;

  // --- failure injection (times relative to stream start; <0 disables) ----
  // Correlated kill: every member hosted in stub domain `domain_kill_index`
  // departs simultaneously at domain_kill_at_s.
  double domain_kill_at_s = -1.0;
  int domain_kill_index = 0;
  // Flash departure: `flash_departures` random members die at flash_at_s.
  double flash_at_s = -1.0;
  int flash_departures = 0;
  // Mid-repair kill: at mid_repair_kill_at_s a parent with children is
  // killed to start a CER repair; once its stripes are serving, the first
  // active recovery-group server is killed too, forcing a stripe failover.
  double mid_repair_kill_at_s = -1.0;
  // Flash-crowd join storm: `join_storm_count` members inject
  // simultaneously at join_storm_at_s (bandwidths/lifetimes drawn from the
  // session's distributions via the chaos RNG), stressing the join path
  // while the stream is live.
  double join_storm_at_s = -1.0;
  int join_storm_count = 0;
  // ISP-level correlated loss: at episodic_at_s every member hosted in stub
  // domain `episodic_domain_index` (and the root, if co-located) joins a
  // fault-plane link group whose episodic on/off loss process starts
  // immediately (sim::EpisodicLossParams).
  double episodic_at_s = -1.0;
  int episodic_domain_index = 0;
  sim::EpisodicLossParams episodic;
  // When >= 0 the episode ends (StopEpisodicLoss) at this offset; the drain
  // then measures recovery from the incident. Negative: the on/off process
  // outlasts the run, so members in the lossy domain stay semi-partitioned
  // through the drain and the settle window.
  double episodic_end_s = -1.0;
  // Rejoin-under-load storm: at reconnect_storm_at_s a
  // `reconnect_storm_fraction` sample of the alive membership departs
  // abruptly and re-enters through the session's bounded-retry re-entry
  // path after per-member exponential downtimes (mean
  // reconnect_downtime_mean_s).
  double reconnect_storm_at_s = -1.0;
  double reconnect_storm_fraction = 0.0;
  double reconnect_downtime_mean_s = 5.0;

  stream::PacketSimParams packet;
};

struct ChaosResult {
  // The run's registry, flattened (obs::Registry::Flatten()): the "chaos.*"
  // control-plane, heartbeat, lease and repair counters, "qoe.*",
  // "reconnect.*", the protocol's own counters and the incident
  // histograms. The runner writes it into its per-cell JSON.
  std::map<std::string, double> registry;
  // Per-disruption lifecycle stats (obs::IncidentLog::FlatStats): counts
  // and per-phase latency percentiles. Empty unless
  // ChaosConfig::incident_analysis.
  std::map<std::string, double> incidents;

  // Starving-time ratio over finalized members (as RunStreamScenario, but
  // from the packet-level ground truth).
  double avg_starving_ratio = 0.0;
  double ci95 = 0.0;
  int members = 0;

  // What the injections actually hit.
  int domain_members_killed = 0;
  int flash_members_killed = 0;
  bool mid_repair_kill_fired = false;
  int join_storm_injected = 0;
  long episodes_started = 0;
  int reconnect_storm_killed = 0;

  // The frame-playback QoE ("qoe.degraded_time_fraction",
  // "qoe.decode_stalls", ...) and re-entry ("reconnect.*") outcomes are
  // read from `registry` by name.

  // Re-entries neither attached nor abandoned; must be zero after the
  // settle window (also "reconnect.pending").
  long reentries_pending = 0;

  // --- post-drain health ---------------------------------------------------
  // Leases held past their expiry (a wedged lock would deadlock switching
  // forever) are "chaos.wedged_leases" in `registry`; must always be 0.
  // Members unrooted at drain end that were still alive, detached fragment
  // roots after the settle window, AND refused by the final placement
  // audit (AuditPlacement) while the rooted tree had spare capacity:
  // orphans the protocol failed to reattach. Stranded-orphan health gates
  // run on this field.
  int unrooted_members = 0;
  // Members the audit could not place because the rooted tree had zero
  // spare slots: with a heavy-tailed capacity mix the overlay can be
  // genuinely full after correlated departures, and no protocol can attach
  // a member to a tree with no open slot. Workload infeasibility, not a
  // protocol failure -- reported, never gated.
  int capacity_starved = 0;
  long final_population = 0;
};

ChaosResult RunChaosScenario(const net::Topology& topology,
                             const ChaosConfig& config);

// The chaos runner's final placement audit over the members found adrift
// at drain end. A member still adrift after the settle window may simply
// be mid-backoff behind a slot that freed moments ago, so each detached
// fragment root among them (Parent == kNoNode; its descendants rejoin with
// it) gets one immediate attach attempt. Only a member the protocol
// refuses NOW is classified: stranded when the rooted tree still had spare
// slots it failed to use, capacity-starved when the tree was full -- after
// a correlated kill the heavy-tailed capacity mix can leave genuinely
// unplaceable members, which measures the workload, not the protocol.
// Adds the refusals to r->unrooted_members and r->capacity_starved.
void AuditPlacement(overlay::Session& session,
                    const std::vector<overlay::NodeId>& adrift,
                    ChaosResult* r);

}  // namespace omcast::exp
