#include "exp/harness.h"

#include <utility>

#include "obs/registry.h"
#include "obs/timeseries.h"
#include "rand/distributions.h"
#include "util/check.h"

namespace omcast::exp {

ScenarioRun::ScenarioRun(const net::Topology& topology, Algorithm algorithm,
                         const RunConfig& config,
                         const overlay::SessionParams& session_params)
    : config_(config),
      simulator_(config.queue_kind),
      session_(simulator_, topology,
               MakeProtocol(algorithm, config.rost, config.clique),
               session_params, config.seed),
      tracer_(config.tracer) {
  if (algorithm == Algorithm::kRost)
    rost_ = static_cast<core::RostProtocol*>(&session_.protocol());
  if (config.use_gossip) {
    gossip_.emplace(session_, config.gossip, config.seed ^ 0x90551BULL);
    session_.SetMembershipOracle(&*gossip_);
  }
  // Incident analysis rides the live trace stream; only the stream
  // matters, so a run-local tracer keeps a single ring slot.
  if (config.incident_analysis && tracer_ == nullptr) {
    local_tracer_.emplace(/*capacity=*/1);
    tracer_ = &*local_tracer_;
  }
  session_.SetTracer(tracer_);
  simulator_.SetProfiler(config.profiler);
  if (config.incident_analysis) tracer_->AddSink(&incident_log_);
}

ScenarioRun::~ScenarioRun() {
  if (config_.incident_analysis) tracer_->RemoveSink(&incident_log_);
}

void ScenarioRun::Start() {
  session_.Prepopulate(config_.population);
  session_.StartArrivals(static_cast<double>(config_.population) /
                         rnd::kMeanLifetimeSeconds);
}

void ScenarioRun::SampleRecovery(obs::Registry& reg, double from,
                                 double until, const char* tag,
                                 std::function<void(double)> extra) {
  const double w = config_.timeseries_window_s;
  util::Check(w > 0.0, "recovery sampling needs a positive window");
  obs::TimeSeries& unrooted = reg.Series(
      "recovery.unrooted_members", obs::TimeSeries::Kind::kGauge, w);
  obs::TimeSeries& pending = reg.Series(
      "recovery.reentries_pending", obs::TimeSeries::Kind::kGauge, w);
  obs::TimeSeries& wedged = reg.Series(
      "recovery.wedged_leases", obs::TimeSeries::Kind::kGauge, w);
  sample_extra_ = std::move(extra);
  sample_tick_ = [this, &unrooted, &pending, &wedged, w, until, tag] {
    const double now = simulator_.now();
    const double wt = now - w;  // start of the window that just ended
    long unrooted_n = 0;
    for (overlay::NodeId id : session_.alive_members())
      if (!session_.tree().IsRooted(id)) ++unrooted_n;
    unrooted.Sample(wt, static_cast<double>(unrooted_n));
    pending.Sample(wt, static_cast<double>(session_.reentries_pending()));
    wedged.Sample(
        wt, static_cast<double>(session_.protocol().WedgedLeases(now)));
    if (sample_extra_) sample_extra_(wt);
    if (now + w <= until + 1e-9)
      simulator_.ScheduleAfter(w, sample_tick_, tag);
  };
  simulator_.ScheduleAt(from + w, sample_tick_, tag);
}

void ScenarioRun::ExportSessionCounters(obs::Registry& reg) {
  reg.Count("session.total_members",
            static_cast<double>(session_.total_members_created()));
  reg.Count("session.failed_join_attempts",
            static_cast<double>(session_.failed_join_attempts()));
  reg.Count("session.dropped_arrivals",
            static_cast<double>(session_.dropped_arrivals()));
  reg.SetGauge("session.final_population",
               static_cast<double>(session_.alive_count()));
}

std::map<std::string, double> ScenarioRun::Finish(obs::Registry* reg) {
  std::map<std::string, double> incidents;
  if (config_.incident_analysis) {
    incident_log_.Finalize(simulator_.now());
    incidents = incident_log_.FlatStats();
    if (reg != nullptr) incident_log_.ExportTo(*reg);
  }
  if (reg != nullptr) {
    // "rost.*" lock traffic, "clique.*" election tallies or the Fig. 10
    // message costs, depending on the algorithm under test.
    session_.protocol().ExportCounters(*reg);
    // Ring-eviction visibility, caller-attached tracers only (the
    // run-local incident feed intentionally retains nothing).
    if (config_.tracer != nullptr)
      reg->Count("obs.trace.evicted",
                 static_cast<double>(config_.tracer->dropped()));
  }
  return incidents;
}

}  // namespace omcast::exp
