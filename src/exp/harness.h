// The run-assembly core every exp/ runner is built on (RunTreeScenario,
// RunStreamScenario, RunMemberTraceScenario, RunChaosScenario): it builds
// the simulator, protocol and session, wires the observability, starts the
// paper's Section 5 arrival process, samples the recovery curves and
// exports the end-of-run counters. Internal to src/exp.
//
// Replays are bit-identical only if every seeded object is constructed,
// and every event scheduled, in a fixed order (event sequence numbers
// break time ties), so a runner builds its own components after the core
// and calls Start / SampleRecovery at the same points on every run.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "exp/scenario.h"
#include "obs/incident.h"
#include "obs/trace.h"
#include "overlay/gossip.h"
#include "sim/simulator.h"

namespace omcast::exp {

class ScenarioRun {
 public:
  // Builds the Simulator, then the protocol for `algorithm`, then the
  // Session over `session_params`, then, with config.use_gossip, the
  // gossip service (seeded config.seed ^ 0x90551B) as the session's
  // membership oracle. Traces go to config.tracer or, when only incident
  // analysis needs the stream, to a 1-slot tracer local to the run;
  // config.profiler brackets every dispatch. `config` must outlive the run.
  ScenarioRun(const net::Topology& topology, Algorithm algorithm,
              const RunConfig& config,
              const overlay::SessionParams& session_params);
  ~ScenarioRun();
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  overlay::Session& session() { return session_; }
  // The ROST protocol under test; null for every other algorithm.
  core::RostProtocol* rost() const { return rost_; }
  // The gossip membership service; null unless config.use_gossip.
  overlay::GossipService* gossip() { return gossip_ ? &*gossip_ : nullptr; }

  // Pre-populates the equilibrium session and starts Poisson arrivals at
  // lambda = population / mean lifetime (Little's law).
  void Start();

  // Recovery-curve sampler (needs config.timeseries_window_s > 0): one
  // tick per window from `from` through `until`, each stamping the window
  // that just ended (its start time) so the curves sit on the absolute
  // window grid. Every tick samples the "recovery.*" session gauges --
  // unrooted members, pending re-entries, wedged leases -- into `reg`,
  // then calls `extra(window_start)` for runner-specific series. `tag` is
  // the ticks' profiler tag.
  void SampleRecovery(obs::Registry& reg, double from, double until,
                      const char* tag,
                      std::function<void(double)> extra = {});

  // session.total_members / failed_join_attempts / dropped_arrivals and
  // the final-population gauge.
  void ExportSessionCounters(obs::Registry& reg);

  // End of run: finalizes the incident log and exports it into `reg`
  // (when set) along with the protocol counters and, for a caller-attached
  // tracer, the ring's eviction count (obs.trace.evicted). Returns the
  // incident stats; empty unless config.incident_analysis.
  std::map<std::string, double> Finish(obs::Registry* reg);

 private:
  const RunConfig& config_;
  sim::Simulator simulator_;
  overlay::Session session_;
  core::RostProtocol* rost_ = nullptr;
  std::optional<overlay::GossipService> gossip_;
  std::optional<obs::Tracer> local_tracer_;
  obs::Tracer* tracer_ = nullptr;
  obs::IncidentLog incident_log_;
  // The tick is copied into every scheduled event, so runner state lives
  // in `sample_extra_`, never in the tick's captures.
  std::function<void(double)> sample_extra_;
  std::function<void()> sample_tick_;
};

}  // namespace omcast::exp
