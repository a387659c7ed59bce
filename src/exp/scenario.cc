#include "exp/scenario.h"

#include "exp/harness.h"
#include "metrics/collectors.h"
#include "obs/registry.h"
#include "proto/longest_first.h"
#include "proto/min_depth.h"
#include "proto/relaxed_ordered.h"
#include "util/check.h"

namespace omcast::exp {

std::vector<Algorithm> AllAlgorithms() {
  return {Algorithm::kMinDepth, Algorithm::kRelaxedBo, Algorithm::kLongestFirst,
          Algorithm::kRelaxedTo, Algorithm::kRost};
}

const char* AlgorithmLabel(Algorithm a) {
  switch (a) {
    case Algorithm::kMinDepth: return "min-depth";
    case Algorithm::kLongestFirst: return "longest-first";
    case Algorithm::kRelaxedBo: return "relaxed-BO";
    case Algorithm::kRelaxedTo: return "relaxed-TO";
    case Algorithm::kRost: return "ROST";
    case Algorithm::kClique: return "clique";
  }
  return "?";
}

std::unique_ptr<overlay::Protocol> MakeProtocol(
    Algorithm a, const core::RostParams& rost,
    const proto::CliqueParams& clique) {
  switch (a) {
    case Algorithm::kMinDepth:
      return std::make_unique<proto::MinDepthProtocol>();
    case Algorithm::kLongestFirst:
      return std::make_unique<proto::LongestFirstProtocol>();
    case Algorithm::kRelaxedBo:
      return std::make_unique<proto::RelaxedBandwidthOrderedProtocol>();
    case Algorithm::kRelaxedTo:
      return std::make_unique<proto::RelaxedTimeOrderedProtocol>();
    case Algorithm::kRost:
      return std::make_unique<core::RostProtocol>(rost);
    case Algorithm::kClique:
      return std::make_unique<proto::CliqueProtocol>(clique);
  }
  util::Fail("unknown algorithm");
}

TreeScenarioResult RunTreeScenario(const net::Topology& topology, Algorithm a,
                                   const ScenarioConfig& config) {
  ScenarioRun run(topology, a, config, config.session);
  metrics::MemberOutcomes outcomes(run.session());
  metrics::TreeSnapshots snapshots(run.session(), config.snapshot_interval_s);

  const double t_measure = config.warmup_s;
  const double t_end = config.warmup_s + config.measure_s;
  outcomes.SetWindow(t_measure, t_end);
  snapshots.Start(t_measure, t_end);
  if (config.timeseries_window_s > 0.0 && config.registry != nullptr)
    run.SampleRecovery(*config.registry, t_measure, t_end,
                       "scenario.timeseries");

  run.Start();
  run.simulator().RunUntil(t_end);
  outcomes.HarvestAliveMembers();

  TreeScenarioResult r;
  r.avg_disruptions = outcomes.disruptions().mean();
  r.disruptions_ci95 = outcomes.disruptions().ci95_half_width();
  r.avg_reconnections = outcomes.reconnections().mean();
  r.avg_delay_ms = snapshots.delay_ms().mean();
  r.avg_stretch = snapshots.stretch().mean();
  r.avg_depth = snapshots.depth().mean();
  r.avg_population = snapshots.population().mean();
  r.qualifying_members = outcomes.qualifying_members();
  r.disruption_samples = outcomes.disruption_samples();
  if (run.rost() != nullptr) {
    r.rost_switches = run.rost()->switches_performed();
    r.rost_lock_conflicts = run.rost()->lock_conflicts();
  }
  r.incidents = run.Finish(config.registry);
  if (config.registry != nullptr) run.ExportSessionCounters(*config.registry);
  return r;
}

StreamScenarioResult RunStreamScenario(const net::Topology& topology,
                                       Algorithm a,
                                       const ScenarioConfig& config,
                                       const stream::StreamParams& stream) {
  ScenarioRun run(topology, a, config, config.session);
  stream::StreamingLayer streaming(run.session(), stream,
                                   config.seed ^ 0x5151);
  streaming.SetMeasurementWindow(config.warmup_s,
                                 config.warmup_s + config.measure_s);

  run.Start();
  run.simulator().RunUntil(config.warmup_s + config.measure_s);

  StreamScenarioResult r;
  r.avg_starving_ratio = streaming.ratio_stat().mean();
  r.ci95 = streaming.ratio_stat().ci95_half_width();
  r.members = static_cast<int>(streaming.ratio_stat().count());
  r.outages = streaming.outages_simulated();
  r.avg_recovery_rate = streaming.aggregate_rate_stat().mean();
  if (config.registry != nullptr) {
    run.ExportSessionCounters(*config.registry);
    config.registry->Count("stream.outages", static_cast<double>(r.outages));
  }
  return r;
}

TraceResult RunMemberTraceScenario(const net::Topology& topology, Algorithm a,
                                   const ScenarioConfig& config,
                                   double member_bandwidth,
                                   double member_lifetime_s, double trace_s) {
  ScenarioRun run(topology, a, config, config.session);
  metrics::MemberTrace trace(run.session(), config.snapshot_interval_s);

  run.Start();
  run.simulator().RunUntil(config.warmup_s);

  const overlay::NodeId tagged =
      run.session().InjectMember(member_bandwidth, member_lifetime_s);
  const double t0 = run.simulator().now();
  trace.Track(tagged);
  run.simulator().RunUntil(t0 + trace_s);

  TraceResult out;
  for (const auto& p : trace.disruption_series())
    out.cumulative_disruptions.push_back({(p.t - t0) / 60.0, p.v});
  for (const auto& p : trace.delay_series())
    out.delay_ms.push_back({(p.t - t0) / 60.0, p.v});
  return out;
}

}  // namespace omcast::exp
