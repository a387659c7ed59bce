// omcast_perfbench: runs one benchmark workload of the simulator stack and
// prints one JSON object with host timings, deterministic work counts, the
// health tallies and the simulated-statistics digest. perfbench/run.py
// builds and drives it; see perfbench/README.md for the workloads and
// metrics.
//
//   omcast_perfbench --workload paper_stack --seed 1 --seconds 10 --trace 0
//
// A run repeats the workload ("reps") from scratch until --seconds of host
// time are spent (at least --min-reps times). Every rep of one seed must
// produce the same digest. With --trace 1 the reps alternate untraced and
// traced, and the traced reps add per-layer metrics. Each rep also reports
// the host's speed during it, measured by HostSpeed (instrument.h).
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/cer/group.h"
#include "core/rost/rost.h"
#include "exp/chaos.h"
#include "instrument.h"
#include "metrics/collectors.h"
#include "net/topology.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "overlay/gossip.h"
#include "overlay/heartbeat.h"
#include "overlay/session.h"
#include "rand/distributions.h"
#include "sim/simulator.h"
#include "stream/streaming.h"
#include "util/hash.h"

namespace perfbench {
namespace {

using omcast::overlay::kNoNode;
using omcast::overlay::NodeId;
namespace net = omcast::net;
namespace obs = omcast::obs;
namespace overlay = omcast::overlay;
namespace sim = omcast::sim;

// --- workload shapes (changing any of these changes the pinned digests) ----

// paper_stack: the paper's stack on the paper topology. The horizon passes
// t = 360 s, ROST's default switching interval, so the first wave of BTP
// switch checks runs inside the measured phase.
constexpr int kPaperMembers = 8000;
constexpr double kPaperHorizonS = 450.0;
// scale_churn: ROST + heartbeats at 10^5 members.
constexpr int kScaleMembers = 100000;
constexpr double kScaleHorizonS = 20.0;
// Members adrift (detached fragment roots) both this long before the end and
// at the end get the final placement audit; see AuditStranded.
constexpr double kSettleS = 10.0;
// Topology seeds are derived from the workload seed, never shared with the
// session's own streams.
constexpr std::uint64_t kTopologySalt = 0x70706fULL;
// Probe sizes (traced reps only; run after the digest is taken).
constexpr int kDelayProbePairs = 1 << 20;
constexpr int kSelectProbeCalls = 2000;

struct Health {
  long dropped_arrivals = 0;
  long stranded_orphans = 0;
  long permanently_stalled = 0;
  long reentries_pending = 0;
  long wedged_leases = 0;
};

struct RepResult {
  double setup_s = 0.0;
  double topology_s = 0.0;
  double prepopulate_s = 0.0;
  double run_s = 0.0;
  double sim_s = 0.0;
  long ops = 0;
  Health health;
  // Simulated statistics and deterministic work counts; all of them feed
  // the digest and must repeat exactly for a seed.
  std::map<std::string, double> stats;
  std::uint64_t digest = 0;
  // Per-layer host times, latency quantiles and probe results (traced reps
  // only; host-dependent, never in the digest).
  std::map<std::string, double> layers;
  double total_s = 0.0;  // whole rep up to the digest, setup included
  // Host speed during the rep, HostSpeed::kReferenceSliceS over the mean
  // calibration slice time; the times above exclude the slices.
  double speed = 0.0;
};

// --- helpers -----------------------------------------------------------------

net::Topology GenerateTopology(const net::TopologyParams& params,
                               std::uint64_t seed, SpanRecorder* spans,
                               double* seconds) {
  ScopedSpan span(spans, "topology.generate");
  const Clock::time_point t0 = Clock::now();
  omcast::rnd::Rng rng(seed ^ kTopologySalt);
  net::Topology topo = net::Topology::Generate(params, rng);
  *seconds = SecondsSince(t0);
  return topo;
}

// Detached fragment roots: alive, not the source, no parent.
std::vector<NodeId> AdriftMembers(overlay::Session& session) {
  std::vector<NodeId> out;
  for (NodeId id : session.alive_members())
    if (session.tree().Parent(id) == kNoNode) out.push_back(id);
  return out;
}

// The chaos harness's final placement audit, applied to members adrift both
// kSettleS before the end and at the end: each gets one immediate attach
// attempt; a member the protocol refuses while the rooted tree still has
// spare slots is stranded, otherwise it is capacity-starved (reported, not a
// failure).
void AuditStranded(overlay::Session& session,
                   const std::vector<NodeId>& adrift_before, Health* health,
                   std::map<std::string, double>* stats) {
  const overlay::Tree& tree = session.tree();
  long spare = 0;
  for (NodeId m : session.alive_members())
    if (tree.IsRooted(m)) spare += tree.SpareCapacity(m);
  long starved = 0;
  for (NodeId id : adrift_before) {
    if (!tree.Alive(id) || tree.Parent(id) != kNoNode) continue;
    if (session.protocol().TryAttach(session, id)) {
      spare += tree.Capacity(id) - 1;
      continue;
    }
    if (spare > 0)
      ++health->stranded_orphans;
    else
      ++starved;
  }
  (*stats)["health.adrift_before_end"] =
      static_cast<double>(adrift_before.size());
  (*stats)["health.capacity_starved"] = static_cast<double>(starved);
}

std::uint64_t Digest(const std::map<std::string, double>& stats,
                     std::uint64_t tree_hash) {
  omcast::util::RollingHash h;
  for (const auto& [name, value] : stats) {
    h.MixBytes(name);
    h.MixDouble(value);
  }
  h.MixU64(tree_hash);
  return h.digest();
}

// Parent of every alive member, in the session's alive-list order.
std::uint64_t TreeHash(overlay::Session& session) {
  omcast::util::RollingHash h;
  for (NodeId id : session.alive_members()) {
    h.MixI64(id);
    h.MixI64(session.tree().Parent(id));
  }
  return h.digest();
}

void PutHealth(const Health& health, std::map<std::string, double>* stats) {
  (*stats)["health.dropped_arrivals"] =
      static_cast<double>(health.dropped_arrivals);
  (*stats)["health.stranded_orphans"] =
      static_cast<double>(health.stranded_orphans);
  (*stats)["health.permanently_stalled"] =
      static_cast<double>(health.permanently_stalled);
  (*stats)["health.reentries_pending"] =
      static_cast<double>(health.reentries_pending);
  (*stats)["health.wedged_leases"] = static_cast<double>(health.wedged_leases);
}

// Sum of profiler callback wall time over tags starting with `prefix`.
double TagSeconds(const obs::SimProfiler& prof, const std::string& prefix) {
  double us = 0.0;
  for (const auto& [tag, st] : prof.per_tag())
    if (tag.compare(0, prefix.size(), prefix) == 0) us += st.total_us;
  return us * 1e-6;
}

double TagCount(const obs::SimProfiler& prof, const std::string& tag) {
  const auto it = prof.per_tag().find(tag);
  return it == prof.per_tag().end() ? 0.0
                                    : static_cast<double>(it->second.count);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Profiler-derived layer walls shared by every workload.
void PutProfilerLayers(const obs::SimProfiler& prof,
                       std::map<std::string, double>* layers) {
  double callbacks_us = 0.0;
  for (const auto& [tag, st] : prof.per_tag()) callbacks_us += st.total_us;
  (*layers)["sim.events"] = static_cast<double>(prof.events());
  (*layers)["sim.pending_max"] = prof.queue_depth_hist().max();
  (*layers)["sim.queue_s"] = (prof.loop_us() - callbacks_us) * 1e-6;
  (*layers)["heartbeat.s"] = TagSeconds(prof, "heartbeat.");
  (*layers)["gossip.s"] = TagSeconds(prof, "gossip.");
  (*layers)["session.s"] = TagSeconds(prof, "session.");
  (*layers)["rost.s"] = TagSeconds(prof, "rost.");
  (*layers)["stream.s"] = TagSeconds(prof, "stream.");
  (*layers)["fault.deliver_s"] = TagSeconds(prof, "net.deliver");
  (*layers)["obs.timeseries_s"] = TagSeconds(prof, "chaos.timeseries");
}

// Host nanoseconds per Topology::Delay query over a fixed pseudo-random
// sample of host pairs.
double ProbeDelayNs(const net::Topology& topo, std::uint64_t seed) {
  omcast::rnd::Rng rng(seed ^ 0xde1a7ULL);
  const int hosts = topo.num_stub_nodes();
  std::vector<std::pair<int, int>> pairs(kDelayProbePairs);
  for (auto& p : pairs)
    p = {rng.UniformInt(0, hosts - 1), rng.UniformInt(0, hosts - 1)};
  double sum = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (const auto& [a, b] : pairs) sum += topo.Delay(a, b);
  const double s = SecondsSince(t0);
  // The sum must be used, or the compiler may drop the timed loop.
  static volatile double keep = 0.0;
  keep = keep + sum;
  return s * 1e9 / kDelayProbePairs;
}

// --- the stack workloads (paper_stack, scale_churn) ----------------------

// Runs the simulator to `until` in kChunkS steps of simulated time and
// offers the host-speed calibrator a slice between steps. RunUntil(t) runs
// every event due by t, so the steps leave the simulation unchanged.
void RunChunked(sim::Simulator& simulator, double until, HostSpeed& speed) {
  constexpr double kChunkS = 0.1;
  const double from = simulator.now();
  for (long k = 1;; ++k) {
    const double t = std::min(until, from + static_cast<double>(k) * kChunkS);
    simulator.RunUntil(t);
    if (t >= until) return;
    speed.Tick();
  }
}

struct StackShape {
  net::TopologyParams topology;
  int members = 0;
  double horizon_s = 0.0;
  bool gossip_and_stream = false;
};

RepResult RunStack(const StackShape& shape, std::uint64_t seed, bool traced,
                   SpanRecorder* spans, HostSpeed& speed) {
  RepResult r;
  const Stopwatch t_rep(speed);
  ScopedSpan whole(spans, "workload");

  const Stopwatch t_setup(speed);
  const net::Topology topo =
      GenerateTopology(shape.topology, seed, spans, &r.topology_s);
  speed.Tick();

  sim::Simulator simulator;
  std::optional<obs::SimProfiler> prof;
  if (traced) {
    prof.emplace();
    simulator.SetProfiler(&*prof);
  }
  auto rost_owned = std::make_unique<omcast::core::RostProtocol>(
      omcast::core::RostParams{});
  omcast::core::RostProtocol& rost = *rost_owned;
  std::unique_ptr<overlay::Protocol> protocol = std::move(rost_owned);
  TimedProtocol* timed_protocol = nullptr;
  if (traced) {
    auto timed = std::make_unique<TimedProtocol>(std::move(protocol), *spans);
    timed_protocol = timed.get();
    protocol = std::move(timed);
  }
  overlay::SessionParams sp;
  sp.external_failure_detection = true;
  overlay::Session session(simulator, topo, std::move(protocol), sp, seed);

  std::optional<overlay::GossipService> gossip;
  std::optional<TimedOracle> timed_oracle;
  if (shape.gossip_and_stream) {
    gossip.emplace(session, overlay::GossipParams{}, seed ^ 0x60551bULL);
    if (traced) {
      timed_oracle.emplace(*gossip, *spans);
      session.SetMembershipOracle(&*timed_oracle);
    } else {
      session.SetMembershipOracle(&*gossip);
    }
  }
  overlay::HeartbeatService heartbeat(session, overlay::HeartbeatParams{},
                                      seed ^ 0xbea7ULL);
  std::optional<omcast::stream::StreamingLayer> streaming;
  std::optional<omcast::metrics::MemberOutcomes> outcomes;
  if (shape.gossip_and_stream) {
    streaming.emplace(session, omcast::stream::StreamParams{},
                      seed ^ 0x5151ULL);
    streaming->SetMeasurementWindow(0.0, shape.horizon_s);
    outcomes.emplace(session);
    outcomes->SetWindow(0.0, shape.horizon_s);
  }
  long attaches = 0;
  session.hooks().AddOnAttached([&attaches](NodeId, NodeId) { ++attaches; });

  {
    ScopedSpan span(spans, "session.prepopulate");
    const Clock::time_point t0 = Clock::now();
    session.Prepopulate(shape.members);
    r.prepopulate_s = SecondsSince(t0);
  }
  session.StartArrivals(shape.members / omcast::rnd::kMeanLifetimeSeconds);
  r.setup_s = t_setup.Seconds();
  speed.Tick();

  std::vector<NodeId> adrift_before;
  {
    ScopedSpan span(spans, "sim.run_until");
    const Stopwatch t0(speed);
    RunChunked(simulator, shape.horizon_s - kSettleS, speed);
    adrift_before = AdriftMembers(session);
    RunChunked(simulator, shape.horizon_s, speed);
    r.run_s = t0.Seconds();
  }
  r.sim_s = shape.horizon_s;
  const long failed_joins_in_run = session.failed_join_attempts();
  if (outcomes) outcomes->HarvestAliveMembers();
  session.tree().CheckInvariants();

  // --- correctness outputs -------------------------------------------------
  auto& s = r.stats;
  r.health.dropped_arrivals = session.dropped_arrivals();
  r.health.wedged_leases = session.protocol().WedgedLeases(simulator.now());
  r.health.reentries_pending = session.reentries_pending();
  s["sim.events"] = static_cast<double>(simulator.executed_count());
  s["sim.pending_end"] = static_cast<double>(simulator.pending_count());
  s["session.members_created"] =
      static_cast<double>(session.total_members_created());
  s["session.alive_end"] = static_cast<double>(session.alive_count());
  s["session.failed_join_attempts"] = static_cast<double>(failed_joins_in_run);
  s["session.attaches"] = static_cast<double>(attaches);
  s["tree.depth"] = static_cast<double>(session.tree().Depth());
  s["rost.switches"] = static_cast<double>(rost.switches_performed());
  s["rost.lock_conflicts"] = static_cast<double>(rost.lock_conflicts());
  s["rost.infeasible_switches"] =
      static_cast<double>(rost.infeasible_switches());
  s["rost.preempt_joins"] = static_cast<double>(rost.preempt_joins());
  s["heartbeat.sent"] = static_cast<double>(heartbeat.heartbeats_sent());
  s["heartbeat.detections"] = static_cast<double>(heartbeat.detections());
  s["heartbeat.false_suspicions"] =
      static_cast<double>(heartbeat.false_suspicions());
  s["heartbeat.detection_latency_mean_s"] =
      heartbeat.detection_latency().count() > 0
          ? heartbeat.detection_latency().mean()
          : 0.0;
  if (gossip) {
    s["gossip.exchanges"] = static_cast<double>(gossip->exchanges_performed());
    s["gossip.dead_contacts"] = static_cast<double>(gossip->dead_contacts());
  }
  if (streaming) {
    s["stream.outages"] = static_cast<double>(streaming->outages_simulated());
    s["stream.fully_recovered"] =
        static_cast<double>(streaming->repairs_fully_recovered());
    s["stream.starving_members"] =
        static_cast<double>(streaming->ratio_stat().count());
    s["stream.starving_ratio_mean"] = streaming->ratio_stat().count() > 0
                                          ? streaming->ratio_stat().mean()
                                          : 0.0;
    s["stream.recovery_rate_mean"] =
        streaming->aggregate_rate_stat().count() > 0
            ? streaming->aggregate_rate_stat().mean()
            : 0.0;
  }
  if (outcomes) {
    s["outcome.members"] = static_cast<double>(outcomes->qualifying_members());
    s["outcome.disruptions_mean"] = outcomes->disruptions().count() > 0
                                        ? outcomes->disruptions().mean()
                                        : 0.0;
    s["outcome.reconnections_mean"] = outcomes->reconnections().count() > 0
                                          ? outcomes->reconnections().mean()
                                          : 0.0;
  }
  // The tree shape is hashed before the audit's attach attempts move it.
  const std::uint64_t tree_hash = TreeHash(session);
  AuditStranded(session, adrift_before, &r.health, &s);
  PutHealth(r.health, &s);
  r.ops = session.total_members_created();
  r.digest = Digest(s, tree_hash);
  // The rep clock stops here: trace.overhead_s compares these times, and the
  // probes below run in traced reps only.
  r.total_s = t_rep.Seconds();

  // --- per-layer metrics (traced reps) --------------------------------------
  if (traced) {
    auto& l = r.layers;
    PutProfilerLayers(*prof, &l);
    l["heartbeat.sent"] = s.at("heartbeat.sent");
    l["heartbeat.detections"] = s.at("heartbeat.detections");
    l["heartbeat.false_suspicions"] = s.at("heartbeat.false_suspicions");
    if (gossip) {
      l["gossip.exchanges"] = s.at("gossip.exchanges");
      l["gossip.dead_contact_ratio"] =
          Ratio(s.at("gossip.dead_contacts"), s.at("gossip.exchanges"));
      const std::vector<double> us =
          spans->DurationsUs("membership.known_members");
      l["membership.calls"] = static_cast<double>(us.size());
      l["membership.us.p50"] = Quantile(us, 0.50);
      l["membership.us.p99"] = Quantile(us, 0.99);
    }
    l["session.joins"] = s.at("session.attaches");
    l["session.join_fail_ratio"] =
        Ratio(s.at("session.failed_join_attempts"),
              s.at("session.failed_join_attempts") + s.at("session.attaches"));
    const std::vector<double> attach_us =
        spans->DurationsUs("proto.try_attach");
    l["proto.attach_calls"] = static_cast<double>(attach_us.size());
    l["proto.attach_us.p50"] = Quantile(attach_us, 0.50);
    l["proto.attach_us.p99"] = Quantile(attach_us, 0.99);
    l["proto.prepopulated_s"] = timed_protocol->prepopulated_s();
    l["rost.switches"] = s.at("rost.switches");
    l["rost.lock_conflicts"] = s.at("rost.lock_conflicts");
    l["rost.infeasible_ratio"] =
        Ratio(s.at("rost.infeasible_switches"),
              s.at("rost.infeasible_switches") + s.at("rost.switches"));
    l["net.delay_table_mb"] = static_cast<double>(topo.DelayTableBytes()) / 1e6;
    l["setup.topology_s"] = r.topology_s;
    l["setup.prepopulate_s"] = r.prepopulate_s;
    if (streaming) {
      l["stream.outages"] = s.at("stream.outages");
      l["stream.full_recovery_ratio"] =
          Ratio(s.at("stream.fully_recovered"), s.at("stream.outages"));
    }
    // Probes run after the digest: SelectRecoveryGroup draws from the
    // session's RNG and the gossip views, so it would perturb the run.
    l["net.delay_ns"] = ProbeDelayNs(topo, seed);
    if (streaming) {
      std::vector<double> us;
      const std::vector<NodeId>& alive = session.alive_members();
      for (int i = 0; i < kSelectProbeCalls && !alive.empty(); ++i) {
        const NodeId requester =
            alive[static_cast<std::size_t>(i) % alive.size()];
        const Clock::time_point t0 = Clock::now();
        omcast::core::SelectRecoveryGroup(session, requester, 3,
                                          omcast::core::GroupSelection::kMlc);
        us.push_back(SecondsSince(t0) * 1e6);
      }
      l["cer.select_group_us.p50"] = Quantile(us, 0.50);
      l["cer.select_group_us.p99"] = Quantile(us, 0.99);
    }
  }
  return r;
}

// --- packet_chaos ----------------------------------------------------------

omcast::exp::ChaosConfig PacketChaosConfig(std::uint64_t seed) {
  omcast::exp::ChaosConfig c;
  c.population = 2000;
  c.warmup_s = 300.0;
  c.stream_s = 120.0;
  c.drain_s = 60.0;
  c.seed = seed;
  c.algorithm = omcast::exp::Algorithm::kRost;
  c.fault.loss_rate = 0.05;
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.02;
  c.use_heartbeats = true;
  c.use_gossip = false;
  c.rost.switching_interval_s = 120.0;
  c.packet.frame_playback = true;
  // Injection times are offsets from stream start (t = warmup_s).
  c.mid_repair_kill_at_s = 20.0;
  c.domain_kill_at_s = 30.0;
  c.domain_kill_index = 0;
  c.reconnect_storm_at_s = 90.0;
  c.reconnect_storm_fraction = 0.10;
  c.reconnect_downtime_mean_s = 5.0;
  c.timeseries_window_s = 5.0;
  c.incident_analysis = true;
  return c;
}

RepResult RunPacketChaos(std::uint64_t seed, bool traced,
                         SpanRecorder* spans, HostSpeed& speed) {
  RepResult r;
  const Stopwatch t_rep(speed);
  ScopedSpan whole(spans, "workload");
  const Stopwatch t_setup(speed);
  const net::Topology topo = GenerateTopology(net::PaperTopologyParams(),
                                              seed, spans, &r.topology_s);
  r.setup_s = t_setup.Seconds();
  speed.Tick();

  omcast::exp::ChaosConfig c = PacketChaosConfig(seed);
  obs::Registry registry;
  c.registry = &registry;
  // Always attached: the kLeave count is the admission count and the regime
  // stream gives the permanently-stalled tally. A one-slot ring keeps
  // nothing; the sink sees every emission.
  obs::Tracer tracer(1);
  // Untraced reps take calibration slices between trace emissions (the
  // stack workloads take them between RunUntil steps). Traced reps do not,
  // as a slice inside a callback would be charged to that callback's layer;
  // run.py scales them by the speed of the untraced rep before them.
  TraceTally sink(traced ? nullptr : &speed);
  tracer.AddSink(&sink);
  c.tracer = &tracer;
  std::optional<obs::SimProfiler> prof;
  if (traced) {
    prof.emplace();
    c.profiler = &*prof;
  }
  omcast::exp::ChaosResult res;
  {
    ScopedSpan span(spans, "sim.run_until");
    const Stopwatch t0(speed);
    res = omcast::exp::RunChaosScenario(topo, c);
    r.run_s = t0.Seconds();
  }
  r.sim_s = c.warmup_s + c.stream_s + c.drain_s + c.settle_s;

  auto& s = r.stats;
  for (const auto& [name, value] : res.registry)
    if (name.compare(0, 4, "obs.") != 0) s["registry." + name] = value;
  for (const auto& [name, value] : res.incidents) s["incident." + name] = value;
  s["chaos.starving_ratio_mean"] = res.avg_starving_ratio;
  s["chaos.members"] = res.members;
  s["chaos.domain_members_killed"] = res.domain_members_killed;
  s["chaos.mid_repair_kill_fired"] = res.mid_repair_kill_fired ? 1.0 : 0.0;
  s["chaos.reconnect_storm_killed"] = res.reconnect_storm_killed;
  s["chaos.final_population"] = static_cast<double>(res.final_population);
  s["chaos.capacity_starved"] = res.capacity_starved;
  s["trace.events"] = static_cast<double>(sink.total());
  s["trace.joins"] = static_cast<double>(sink.Of(obs::EventKind::kJoin));
  s["trace.rejoins"] = static_cast<double>(sink.Of(obs::EventKind::kRejoin));
  s["trace.leaves"] = static_cast<double>(sink.Of(obs::EventKind::kLeave));
  // Dropped arrivals are not exported by the chaos harness; at 2000 members
  // on 15,360 hosts the host pool cannot run out.
  r.health.stranded_orphans = res.unrooted_members;
  // The stream's own permanently_stalled counter (kept in the digest as
  // registry.qoe.permanently_stalled) counts every member whose regime was
  // "stalled" when the stream ended, including members orphaned seconds
  // before the end that had no stream left to recover on. A failure is a
  // member stalled through the whole settle window before the end.
  const double stream_end = c.warmup_s + c.stream_s;
  r.health.permanently_stalled =
      sink.StalledSince(stream_end - c.settle_s, stream_end);
  r.health.reentries_pending = res.reentries_pending;
  r.health.wedged_leases =
      static_cast<long>(registry.CounterValue("chaos.wedged_leases"));
  PutHealth(r.health, &s);
  r.ops = res.final_population + sink.Of(obs::EventKind::kLeave);
  r.digest = Digest(s, 0);
  r.total_s = t_rep.Seconds();

  if (traced) {
    auto& l = r.layers;
    PutProfilerLayers(*prof, &l);
    const auto reg = [&registry](const char* name) {
      return registry.CounterValue(name);
    };
    l["heartbeat.sent"] = reg("chaos.heartbeats_sent");
    l["heartbeat.detections"] = reg("chaos.detections");
    l["heartbeat.false_suspicions"] = reg("chaos.false_suspicions");
    l["session.joins"] = s.at("trace.joins") + s.at("trace.rejoins");
    l["rost.switches"] = reg("rost.switches");
    l["rost.lock_conflicts"] = reg("rost.lock_conflicts");
    l["rost.infeasible_ratio"] =
        Ratio(reg("rost.infeasible_switches"),
              reg("rost.infeasible_switches") + reg("rost.switches"));
    l["stream.deliveries"] = TagCount(*prof, "stream.deliver");
    l["stream.repairs"] = reg("chaos.repairs_scheduled");
    l["stream.eln_sent"] = reg("chaos.eln_sent");
    l["obs.trace_events"] = s.at("trace.events");
    l["net.delay_table_mb"] = static_cast<double>(topo.DelayTableBytes()) / 1e6;
    l["setup.topology_s"] = r.topology_s;
    l["net.delay_ns"] = ProbeDelayNs(topo, seed);
  }
  return r;
}

// --- command line ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int min_reps = 1;
  std::string spans_path;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "omcast_perfbench: " << why
            << "\nusage: omcast_perfbench --workload "
               "paper_stack|scale_churn|packet_chaos --seed N --seconds S "
               "--trace 0|1 [--min-reps N] [--spans FILE]\n";
  std::exit(2);
}

template <typename T>
T ParseNumber(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end)
    Usage("malformed value '" + text + "' for --" + flag);
  return value;
}

// Accepts exactly --name value or --name=value for known flags; a flag
// with no value (end of argv, or followed by another --flag) is an error
// rather than silently swallowing the next argument.
Args ParseArgs(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage("unexpected argument '" + arg + "'");
    std::string name = arg.substr(2);
    std::string value;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else {
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0)
        Usage("flag --" + name + " needs a value");
      value = argv[++i];
    }
    if (seen.count(name) != 0) Usage("flag --" + name + " given twice");
    seen[name] = value;
  }
  for (const auto& [name, value] : seen) {
    if (name == "workload") {
      a.workload = value;
    } else if (name == "seed") {
      a.seed = ParseNumber<std::uint64_t>(name, value);
    } else if (name == "seconds") {
      a.seconds = ParseNumber<double>(name, value);
      if (!(a.seconds > 0.0 && a.seconds <= 3600.0))
        Usage("--seconds must be in (0, 3600]");
    } else if (name == "trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (name == "min-reps") {
      a.min_reps = ParseNumber<int>(name, value);
      if (a.min_reps < 1 || a.min_reps > 1000)
        Usage("--min-reps must be in [1, 1000]");
    } else if (name == "spans") {
      a.spans_path = value;
    } else {
      Usage("unknown flag --" + name);
    }
  }
  if (a.workload != "paper_stack" && a.workload != "scale_churn" &&
      a.workload != "packet_chaos")
    Usage("unknown workload '" + a.workload + "'");
  return a;
}

RepResult RunRep(const Args& args, bool traced, SpanRecorder* spans,
                 HostSpeed& speed) {
  if (args.workload == "packet_chaos")
    return RunPacketChaos(args.seed, traced, spans, speed);
  StackShape shape;
  if (args.workload == "paper_stack") {
    shape.topology = net::PaperTopologyParams();
    shape.members = kPaperMembers;
    shape.horizon_s = kPaperHorizonS;
    shape.gossip_and_stream = true;
  } else {
    // Stub hosts for 10^5 members plus 5% churn headroom (as the scale
    // sweep provisions), so arrivals never exhaust the host pool.
    shape.topology =
        net::ScaleTopologyParams(kScaleMembers + kScaleMembers / 20 + 100);
    shape.members = kScaleMembers;
    shape.horizon_s = kScaleHorizonS;
  }
  return RunStack(shape, args.seed, traced, spans, speed);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void WriteNumberMap(std::ostream& out, const std::map<std::string, double>& m) {
  out << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    out << (first ? "" : ",") << '"' << k << "\":" << v;
    first = false;
  }
  out << '}';
}

void WriteRep(std::ostream& out, const RepResult& r, bool traced) {
  out << "{\"traced\":" << (traced ? "true" : "false")
      << ",\"setup_s\":" << r.setup_s << ",\"run_s\":" << r.run_s
      << ",\"sim_s\":" << r.sim_s << ",\"total_s\":" << r.total_s
      << ",\"speed\":" << r.speed
      << ",\"ops\":" << r.ops
      << ",\"digest\":\"" << Hex(r.digest) << "\",\"stats\":";
  WriteNumberMap(out, r.stats);
  out << ",\"layers\":";
  WriteNumberMap(out, r.layers);
  out << '}';
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"reps\":[";
  HostSpeed speed;
  const Clock::time_point t0 = Clock::now();
  std::optional<SpanRecorder> last_spans;
  // Peak RSS is read after the first rep: later reps reuse a fragmented heap
  // and would tie the figure to how many reps the host's speed allowed. The
  // calibration table is benchmark apparatus and is not counted.
  double peak_rss_mb = 0.0;
  int reps = 0;
  // Untraced runs repeat the rep; traced runs alternate untraced/traced
  // pairs, so trace overhead is measured under the same machine state.
  const auto more = [&] {
    if (args.trace == 1 && reps % 2 == 1) return true;  // finish the pair
    return reps < args.min_reps || SecondsSince(t0) < args.seconds;
  };
  while (more()) {
    const bool traced = args.trace == 1 && reps % 2 == 1;
    std::optional<SpanRecorder> spans;
    if (traced) spans.emplace();
    // Slices bracket the rep, so even a rep with no tick inside has its
    // speed measured next to it.
    const double slice_s0 = speed.slice_s();
    const long slices0 = speed.slices();
    speed.Slice();
    RepResult r = RunRep(args, traced, spans ? &*spans : nullptr, speed);
    speed.Slice();
    r.speed = HostSpeed::kReferenceSliceS *
              static_cast<double>(speed.slices() - slices0) /
              (speed.slice_s() - slice_s0);
    if (reps > 0) out << ',';
    WriteRep(out, r, traced);
    if (traced) last_spans = std::move(spans);
    if (reps == 0) peak_rss_mb = PeakRssMb() - speed.table_mb();
    ++reps;
  }
  out << "],\"peak_rss_mb\":" << peak_rss_mb << '}';
  if (last_spans && !args.spans_path.empty() &&
      !last_spans->WriteJsonl(args.spans_path)) {
    std::cerr << "omcast_perfbench: could not write spans to "
              << args.spans_path << "\n";
    return 1;
  }
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
