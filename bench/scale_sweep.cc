// Scale sweep: the million-member hot-path trajectory.
//
// Drives a full churn workload -- equilibrium-pre-populated Session,
// Poisson arrivals, heartbeat failure detection (the hottest timer load the
// stack produces) -- at steady-state sizes 10^5..10^6 and records the
// simulator hot-path numbers from obs::SimProfiler: dispatched events,
// run-loop wall time (queue operations included), events per wall second,
// peak RSS, and calendar event-pool occupancy.
//
// Two columns per size:
//   * "heap+apsp"          -- the queue and delay-oracle baseline:
//                             QueueKind::kBinaryHeap plus the exact
//                             hierarchical delay oracle with per-domain APSP
//                             tables and the flat validation edge list. Run
//                             only up to --baseline-max members (default
//                             10^5: a 10^6 baseline cell runs for many
//                             minutes, so raise the cap deliberately, as
//                             the committed trajectory does).
//   * "calendar+landmark"  -- QueueKind::kCalendar plus
//                             DelayModel::kLandmark: the configuration that
//                             fits 10^6 members in container memory.
//
// Both columns replay the identical workload (same per-cell seed, and the
// two delay models generate bit-identical topologies), so events/sec ratios
// compare implementations, not workloads.
//
//   ./bench/scale_sweep [--sizes=100000,1000000] [--duration=60]
//                       [--baseline-max=100000] [--out=results]
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/topology.h"
#include "obs/profile.h"
#include "overlay/heartbeat.h"
#include "overlay/session.h"
#include "proto/min_depth.h"
#include "rand/distributions.h"
#include "runner/results.h"
#include "runner/runner.h"
#include "runner/topology_cache.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace omcast;

struct SweepOptions {
  std::vector<int> sizes;
  double duration_s = 60.0;
  int baseline_max = 100000;
  std::uint64_t seed = 1;
  std::string out_dir;
  bool resume = false;
  bool progress = true;
};

// Stub hosts provisioned per steady-state size: 5% churn headroom so
// Poisson arrivals never hit host exhaustion mid-measurement.
int HostsFor(int size) { return size + size / 20 + 100; }

runner::CellResult RunCell(const SweepOptions& opt,
                           const runner::CellContext& cell) {
  const int size = opt.sizes[cell.row];
  const bool optimized = cell.col == 1;
  runner::CellResult out;
  if (!optimized && size > opt.baseline_max) {
    // Above the cap the baseline is deliberately not run (the cell would
    // take many minutes); it records itself as skipped rather than lying
    // with zeros.
    out.metrics["skipped"] = 1.0;
    return out;
  }

  net::TopologyParams tp = net::ScaleTopologyParams(HostsFor(size));
  if (!optimized) {
    tp.delay_model = net::DelayModel::kHierarchical;
    tp.keep_flat_edges = true;
  }
  // Topology seed depends on size but NOT on column: the landmark model
  // consumes the same rng sequence as the exact one, so both columns run
  // the identical network.
  const net::Topology& topo =
      runner::SharedTopology(tp, opt.seed ^ (0x5ca1eULL + cell.row));

  sim::Simulator sim(optimized ? sim::QueueKind::kCalendar
                               : sim::QueueKind::kBinaryHeap);
  obs::SimProfiler prof;
  sim.SetProfiler(&prof);

  overlay::SessionParams sp;
  sp.external_failure_detection = true;
  overlay::Session session(sim, topo,
                           std::make_unique<proto::MinDepthProtocol>(), sp,
                           cell.seed);
  overlay::HeartbeatService heartbeat(session, overlay::HeartbeatParams{},
                                      cell.seed ^ 0xbea75ULL);
  session.Prepopulate(size);
  session.StartArrivals(size / rnd::kMeanLifetimeSeconds);
  sim.RunUntil(opt.duration_s);

  out.metrics["events"] = static_cast<double>(sim.executed_count());
  out.metrics["events_per_sec"] = prof.events_per_sec();
  out.metrics["loop_wall_s"] = prof.loop_us() * 1e-6;
  // peak_rss_mb is the *process* high-water mark (monotone across cells in
  // one grid run -- a late cell inherits earlier cells' peak); rss_delta_mb
  // is the growth attributable to this cell alone.
  out.metrics["peak_rss_mb"] =
      static_cast<double>(prof.peak_rss_bytes()) / 1e6;
  out.metrics["rss_delta_mb"] =
      static_cast<double>(prof.rss_delta_bytes()) / 1e6;
  out.metrics["pool_live_max"] = static_cast<double>(prof.pool_live_max());
  out.metrics["pool_capacity_max"] =
      static_cast<double>(prof.pool_capacity_max());
  out.metrics["pending_end"] = static_cast<double>(sim.pending_count());
  out.metrics["delay_table_mb"] =
      static_cast<double>(topo.DelayTableBytes()) / 1e6;
  out.metrics["population_end"] = session.alive_count();
  out.metrics["heartbeats"] = static_cast<double>(heartbeat.heartbeats_sent());
  out.metrics["detections"] = static_cast<double>(heartbeat.detections());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  flags.Define("sizes", "100000,1000000", "steady-state member counts")
      .Define("duration", "60", "simulated churn seconds per cell")
      .Define("baseline-max", "100000",
              "largest size the heap+apsp baseline column still runs at")
      .Define("seed", "1", "base RNG seed")
      .Define("out", "", "directory for scale_sweep.json (empty: none)")
      .Define("resume", "false", "reuse matching cells from --out JSON")
      .Define("progress", "true", "per-cell progress lines on stderr")
      .Define("log-level", "warn", "debug | info | warn | error");
  if (!flags.Parse(argc, argv)) return 1;
  bench::ApplyLogLevelFlag(flags.GetString("log-level"));

  SweepOptions opt;
  opt.sizes = flags.GetIntList("sizes");
  opt.duration_s = flags.GetDouble("duration");
  opt.baseline_max = flags.GetInt("baseline-max");
  opt.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  opt.out_dir = flags.GetString("out");
  opt.resume = flags.GetBool("resume");
  opt.progress = flags.GetBool("progress");
  if (opt.sizes.empty()) {
    std::cerr << "--sizes must name at least one size\n";
    return 1;
  }

  std::cout << "=== scale_sweep -- simulator hot path at 10^5..10^6 members"
            << " ===\nduration: " << opt.duration_s
            << "s simulated churn  seed: " << opt.seed
            << "  baseline column up to " << opt.baseline_max
            << " members\n\n";

  runner::GridSpec spec;
  spec.figure = "scale_sweep";
  spec.title = "simulator hot-path throughput and memory vs overlay size";
  spec.row_header = "members";
  for (const int size : opt.sizes) spec.rows.push_back(std::to_string(size));
  spec.cols = {"heap+apsp", "calendar+landmark"};
  spec.reps = 1;
  spec.headline_metric = "events_per_sec";
  spec.run = [&opt](const runner::CellContext& cell) {
    return RunCell(opt, cell);
  };

  const runner::ResultsSink sink = bench::RunGridBench(
      spec,
      // Cells are memory-heavy; never overlap them.
      {.threads = 1, .base_seed = opt.seed, .progress = opt.progress},
      {.scale = "scale_sweep", .git_sha = bench::GitSha(),
       .base_seed = opt.seed, .warmup_s = 0.0, .measure_s = opt.duration_s},
      opt.out_dir, opt.resume);

  const std::vector<bench::MetricColumn> columns = {
      {"events", "events", 0},
      {"events/sec", "events_per_sec", 0},
      {"loop wall (s)", "loop_wall_s", 2},
      {"proc peak RSS (MB)", "peak_rss_mb", 1},
      {"cell RSS delta (MB)", "rss_delta_mb", 1},
      {"pool live max", "pool_live_max", 0},
      {"delay tables (MB)", "delay_table_mb", 2},
      {"population", "population_end", 0},
  };
  bench::PrintMetricColumnsTable(spec, sink, 0, columns,
                                 "baseline: binary heap + exact APSP oracle");
  bench::PrintMetricColumnsTable(
      spec, sink, 1, columns,
      "optimized: calendar queue + landmark oracle");

  util::Table speedup({"members", "baseline ev/s", "optimized ev/s", "x"});
  for (std::size_t row = 0; row < spec.rows.size(); ++row) {
    const double base = sink.Stat(row, 0, "events_per_sec").mean();
    const double fast = sink.Stat(row, 1, "events_per_sec").mean();
    speedup.AddRow({spec.rows[row], util::FormatDouble(base, 0),
                    util::FormatDouble(fast, 0),
                    base > 0.0 ? util::FormatDouble(fast / base, 2) : "-"});
  }
  speedup.Print(std::cout, "hot-path throughput (events per wall second)");
  return 0;
}
