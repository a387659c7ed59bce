// Ablation (beyond the paper): the harness normally models membership
// discovery as uniform sampling from the live population ("each node will
// know about a medium-sized subset of other nodes", Section 4.1). This
// bench validates that abstraction by re-running the ROST and min-depth
// scenarios over the *real* gossip protocol (bounded views, push-pull
// exchanges, stale entries; exp::RunConfig::use_gossip) and comparing the
// headline metrics. Both columns are plain RunTreeScenario cells, so the
// "uniform" column is the figure benches' own run.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  bench::DefineCommonFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchEnv env = bench::MakeEnv(flags);
  bench::PrintHeader("Ablation -- uniform sampling vs real gossip views", env);

  const exp::Algorithm algorithms[] = {exp::Algorithm::kMinDepth,
                                       exp::Algorithm::kRost};
  runner::GridSpec spec;
  spec.figure = "ablation_gossip";
  spec.title = "membership-discovery ablation";
  spec.row_header = "algorithm";
  for (const exp::Algorithm a : algorithms)
    spec.rows.push_back(exp::AlgorithmLabel(a));
  spec.cols = {"uniform", "gossip views"};
  spec.reps = env.reps;
  spec.headline_metric = "disruptions";
  spec.run = [&env, &algorithms](const runner::CellContext& cell) {
    exp::ScenarioConfig config = env.BaseConfig();
    config.population = env.focus_size;
    config.seed = cell.seed;
    config.use_gossip = cell.col == 1;
    return bench::TreeCellResult(
        exp::RunTreeScenario(env.Topo(), algorithms[cell.row], config));
  };
  const runner::ResultsSink sink = bench::RunGridBench(env, spec);

  util::Table table({"algorithm", "discovery", "disruptions/node", "delay(ms)",
                     "reconnects/node"});
  for (std::size_t row = 0; row < spec.rows.size(); ++row) {
    for (std::size_t col = 0; col < spec.cols.size(); ++col) {
      table.AddRow(
          {spec.rows[row], spec.cols[col],
           util::FormatDouble(sink.Stat(row, col, "disruptions").mean(), 3),
           util::FormatDouble(sink.Stat(row, col, "delay_ms").mean(), 1),
           util::FormatDouble(sink.Stat(row, col, "reconnections").mean(),
                              3)});
    }
  }
  table.Print(std::cout,
              "membership-discovery ablation (" +
                  std::to_string(env.focus_size) + " members)");
  std::cout << "\nIf the rows match within noise, the uniform-sampling "
               "abstraction used by the\nfigure benches is sound.\n";
  return 0;
}
