#include "exp/chaos.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "exp/harness.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "util/check.h"

namespace omcast::exp {

using overlay::kNoNode;
using overlay::NodeId;

namespace {

// Kills every alive member hosted in `domain`. The victim list is collected
// before the first kill: DepartNow mutates the alive list.
int KillDomain(overlay::Session& session, const net::Topology& topology,
               int domain) {
  std::vector<NodeId> victims;
  for (NodeId id : session.alive_members())
    if (topology.DomainOf(session.tree().Get(id).host) == domain)
      victims.push_back(id);
  for (NodeId id : victims)
    if (session.tree().Alive(id)) session.DepartNow(id);
  return static_cast<int>(victims.size());
}

int KillFlash(overlay::Session& session, rnd::Rng& rng, int count) {
  const std::vector<NodeId> victims = rng.SampleWithoutReplacementFrom(
      session.alive_members(), static_cast<std::size_t>(count));
  for (NodeId id : victims)
    if (session.tree().Alive(id)) session.DepartNow(id);
  return static_cast<int>(victims.size());
}

// Starts a repair by killing the alive member with the most children (ties
// to the lowest id), i.e. the death that orphans the widest fragment. The
// root is off limits: it is the source, not a failure candidate.
void KillBusiestParent(overlay::Session& session) {
  NodeId victim = kNoNode;
  std::size_t most = 0;
  for (NodeId id : session.alive_members()) {
    if (id == overlay::kRootId) continue;
    const auto n = static_cast<std::size_t>(session.tree().ChildCount(id));
    if (n == 0) continue;
    if (n > most || (n == most && id < victim)) {
      victim = id;
      most = n;
    }
  }
  if (victim != kNoNode) session.DepartNow(victim);
}

// Snapshots the counters of whichever components the run used into `reg`
// under "chaos.*" (plus the frame-playback "qoe.*" and the re-entry
// "reconnect.*") names; a null component leaves its section absent. `now`
// is needed to evaluate lease wedging.
void CollectChaosRegistry(obs::Registry& reg, const overlay::Session& session,
                          const sim::FaultPlane& fault_plane,
                          const overlay::HeartbeatService* heartbeat,
                          const core::RostProtocol* rost,
                          const overlay::GossipService* gossip,
                          const stream::PacketLevelStream& stream,
                          sim::Time now) {
  const auto count = [&reg](const char* name, long v) {
    reg.Count(name, static_cast<double>(v));
  };
  count("chaos.messages_sent", fault_plane.messages_sent());
  count("chaos.messages_dropped", fault_plane.messages_dropped());
  count("chaos.messages_duplicated", fault_plane.messages_duplicated());
  count("chaos.messages_delivered", fault_plane.messages_delivered());
  if (heartbeat != nullptr) {
    count("chaos.heartbeats_sent", heartbeat->heartbeats_sent());
    count("chaos.detections", heartbeat->detections());
    count("chaos.false_suspicions", heartbeat->false_suspicions());
    reg.SetGauge("chaos.mean_detection_latency_s",
                 heartbeat->detection_latency().count() > 0
                     ? heartbeat->detection_latency().mean()
                     : 0.0);
  }
  count("chaos.wedged_leases", session.protocol().WedgedLeases(now));
  if (rost != nullptr) {
    count("chaos.leases_granted", rost->leases_granted());
    count("chaos.leases_released", rost->leases_released());
    count("chaos.leases_expired", rost->leases_expired());
    count("chaos.leases_outstanding", rost->leases_outstanding());
    count("chaos.lock_timeouts", rost->lock_timeouts());
    count("chaos.lock_retries", rost->lock_retries());
    count("chaos.handshake_aborts", rost->handshake_aborts());
    count("chaos.preempt_joins", rost->preempt_joins());
  }
  if (gossip != nullptr)
    count("chaos.stale_view_rejections", gossip->stale_rejections());
  count("chaos.repairs_scheduled", stream.repairs_scheduled());
  count("chaos.eln_sent", stream.eln_notifications_sent());
  count("chaos.stripe_failovers", stream.stripe_failovers());
  count("chaos.short_group_fallbacks", stream.short_group_fallbacks());
  // Frame-playback QoE (all zero unless PacketSimParams.frame_playback):
  // the degraded-regime scenario family's headline metrics.
  count("qoe.decode_stalls", stream.decode_stalls());
  count("qoe.regime_transitions", stream.regime_transitions());
  count("qoe.dependency_resyncs", stream.dependency_resyncs());
  count("qoe.permanently_stalled", stream.permanently_stalled());
  reg.SetGauge("qoe.degraded_time_fraction",
               stream.degraded_fraction_stat().count() > 0
                   ? stream.degraded_fraction_stat().mean()
                   : 0.0);
  reg.SetGauge("qoe.mean_recovery_to_cadence_s",
               stream.recovery_latency_stat().count() > 0
                   ? stream.recovery_latency_stat().mean()
                   : 0.0);
  count("reconnect.scheduled", session.reentries_scheduled());
  count("reconnect.attached", session.reentries_attached());
  count("reconnect.abandoned", session.reentries_abandoned());
  count("reconnect.pending", session.reentries_pending());
}

}  // namespace

void AuditPlacement(overlay::Session& session,
                    const std::vector<NodeId>& adrift, ChaosResult* r) {
  const overlay::Tree& tree = session.tree();
  long spare = 0;
  for (NodeId m : session.alive_members())
    if (tree.IsRooted(m)) spare += tree.SpareCapacity(m);
  for (NodeId id : adrift) {
    // Only a detached fragment root can attach (the source is rooted and
    // parentless); a member below a fragment root rejoins with it.
    if (!tree.Alive(id) || tree.Parent(id) != kNoNode || tree.IsRooted(id))
      continue;
    if (session.protocol().TryAttach(session, id)) {
      spare += tree.Capacity(id) - 1;
      continue;
    }
    if (spare > 0)
      ++r->unrooted_members;
    else
      ++r->capacity_starved;
  }
}

ChaosResult RunChaosScenario(const net::Topology& topology,
                             const ChaosConfig& config) {
  overlay::SessionParams sp = config.session;
  sp.external_failure_detection = config.use_heartbeats;
  // The packet simulator requires the rejoin delay to cover its detection
  // time; the harness keeps mismatched configs runnable.
  sp.rejoin_delay_s = std::max(sp.rejoin_delay_s, config.packet.detect_s);

  ScenarioRun run(topology, config.algorithm, config, sp);
  sim::Simulator& simulator = run.simulator();
  overlay::Session& session = run.session();
  sim::FaultPlane fault_plane(simulator, config.fault,
                              config.seed ^ 0x9e3779b97f4a7c15ULL);
  session.protocol().SetFaultPlane(&fault_plane);

  std::optional<overlay::HeartbeatService> heartbeat;
  if (config.use_heartbeats)
    heartbeat.emplace(session, config.heartbeat, config.seed ^ 0xbea7ULL,
                      &fault_plane);

  if (run.gossip() != nullptr) run.gossip()->SetFaultPlane(&fault_plane);

  stream::PacketLevelStream stream(session, config.packet,
                                   config.seed ^ 0x5151ULL);
  stream.SetFaultPlane(&fault_plane);

  rnd::Rng chaos_rng(config.seed ^ 0xc4a05ULL);
  ChaosResult r;
  // The run's own registry: the recovery curves land in it while the run
  // executes, the end-of-run counters after it.
  obs::Registry reg;

  run.Start();
  simulator.RunUntil(config.warmup_s);

  const double t0 = simulator.now();
  stream.Start(config.stream_s);

  // Recovery curves from stream start through the settle window's end,
  // with the stream's repair backlog, degraded-receiver fraction and
  // late-frame rate on top of the session gauges.
  if (config.timeseries_window_s > 0.0) {
    const double w = config.timeseries_window_s;
    obs::TimeSeries* backlog = &reg.Series(
        "recovery.repair_backlog", obs::TimeSeries::Kind::kGauge, w);
    obs::TimeSeries* degraded = &reg.Series(
        "recovery.degraded_fraction", obs::TimeSeries::Kind::kGauge, w);
    obs::TimeSeries* late = &reg.Series(
        "recovery.frames_late", obs::TimeSeries::Kind::kCounterRate, w);
    run.SampleRecovery(
        reg, t0, t0 + config.stream_s + config.drain_s + config.settle_s,
        "chaos.timeseries",
        [&session, &stream, backlog, degraded, late,
         frames_late_seen = 0L](double wt) mutable {
          backlog->Sample(
              wt, static_cast<double>(stream.ActiveRepairServers().size()));
          const auto alive = static_cast<double>(session.alive_count());
          degraded->Sample(
              wt, alive > 0.0 ? static_cast<double>(
                                    stream.degraded_receivers()) / alive
                              : 0.0);
          late->AddDelta(wt, static_cast<double>(stream.frames_late() -
                                                 frames_late_seen));
          frames_late_seen = stream.frames_late();
        });
  }

  if (config.domain_kill_at_s >= 0.0) {
    simulator.ScheduleAt(t0 + config.domain_kill_at_s, [&] {
      r.domain_members_killed =
          KillDomain(session, topology, config.domain_kill_index);
    });
  }
  if (config.flash_at_s >= 0.0 && config.flash_departures > 0) {
    simulator.ScheduleAt(t0 + config.flash_at_s, [&] {
      r.flash_members_killed =
          KillFlash(session, chaos_rng, config.flash_departures);
    });
  }
  if (config.join_storm_at_s >= 0.0 && config.join_storm_count > 0) {
    simulator.ScheduleAt(t0 + config.join_storm_at_s, [&] {
      // A flash crowd arrives at one instant; injection stops (and the
      // shortfall is visible in join_storm_injected) if the stub hosts run
      // out.
      for (int i = 0; i < config.join_storm_count; ++i) {
        if (session.alive_count() + 1 >= topology.num_stub_nodes()) break;
        const double bandwidth = sp.bandwidth_dist.Sample(chaos_rng);
        const double lifetime = sp.lifetime_dist.Sample(chaos_rng);
        session.InjectMember(bandwidth, lifetime);
        ++r.join_storm_injected;
      }
    });
  }
  if (config.episodic_at_s >= 0.0) {
    simulator.ScheduleAt(t0 + config.episodic_at_s, [&] {
      // Everything hosted in the outage domain -- including the root if it
      // is co-located -- joins one link group; messages touching the group
      // see the episode's loss floor while it is ON.
      if (topology.DomainOf(session.tree().Get(overlay::kRootId).host) ==
          config.episodic_domain_index)
        fault_plane.SetNodeGroup(overlay::kRootId, 0);
      for (NodeId id : session.alive_members())
        if (topology.DomainOf(session.tree().Get(id).host) ==
            config.episodic_domain_index)
          fault_plane.SetNodeGroup(id, 0);
      fault_plane.StartEpisodicLoss(0, config.episodic);
    });
    if (config.episodic_end_s >= 0.0)
      simulator.ScheduleAt(t0 + config.episodic_end_s,
                           [&] { fault_plane.StopEpisodicLoss(0); });
  }
  if (config.reconnect_storm_at_s >= 0.0 &&
      config.reconnect_storm_fraction > 0.0) {
    simulator.ScheduleAt(t0 + config.reconnect_storm_at_s, [&] {
      const auto want = static_cast<std::size_t>(
          config.reconnect_storm_fraction *
          static_cast<double>(session.alive_count()));
      const std::vector<NodeId> victims =
          chaos_rng.SampleWithoutReplacementFrom(session.alive_members(),
                                                 want);
      for (NodeId id : victims) {
        if (!session.tree().Alive(id)) continue;
        const double downtime =
            chaos_rng.ExponentialMean(config.reconnect_downtime_mean_s);
        const double lifetime = sp.lifetime_dist.Sample(chaos_rng);
        session.DepartNow(id);
        session.ScheduleReentry(id, downtime, lifetime);
        ++r.reconnect_storm_killed;
      }
    });
  }
  if (config.mid_repair_kill_at_s >= 0.0) {
    simulator.ScheduleAt(t0 + config.mid_repair_kill_at_s, [&] {
      KillBusiestParent(session);
      // Once the repair stripes are serving, kill the first active server.
      simulator.ScheduleAfter(config.packet.detect_s + 1.0, [&] {
        for (NodeId server : stream.ActiveRepairServers()) {
          if (server == overlay::kRootId) continue;
          if (!session.tree().Alive(server)) continue;
          session.DepartNow(server);
          r.mid_repair_kill_fired = true;
          break;
        }
      });
    });
  }

  simulator.RunUntil(t0 + config.stream_s);
  session.StopArrivals();
  simulator.RunUntil(t0 + config.stream_s + config.drain_s);
  stream.FinalizeAliveMembers();

  // Churn continues through the drain, so members whose parent died in the
  // last few seconds are legitimately still detached. Sample them, give
  // them one settle window (failure detection + rejoin retries), and count
  // only the ones that still failed to reattach.
  std::vector<NodeId> adrift;
  for (NodeId id : session.alive_members())
    if (!session.tree().IsRooted(id)) adrift.push_back(id);
  simulator.RunUntil(simulator.now() + config.settle_s);
  AuditPlacement(session, adrift, &r);

  const sim::Time now = simulator.now();
  CollectChaosRegistry(reg, session, fault_plane,
                       heartbeat ? &*heartbeat : nullptr, run.rost(),
                       run.gossip(), stream, now);
  r.incidents = run.Finish(&reg);
  r.registry = reg.Flatten();
  if (config.registry != nullptr) config.registry->MergeFrom(reg);
  r.avg_starving_ratio = stream.ratio_stat().mean();
  r.ci95 = stream.ratio_stat().ci95_half_width();
  r.members = static_cast<int>(stream.ratio_stat().count());
  r.final_population = session.alive_count();
  r.episodes_started = fault_plane.episodes_started();
  r.reentries_pending = session.reentries_pending();
  return r;
}

}  // namespace omcast::exp
