// Ad-hoc scenario driver: run any algorithm / topology / workload
// combination from the command line and get a one-line (or CSV) summary.
//
//   ./examples/scenario_cli --algorithm=rost --population=2000
//   ./examples/scenario_cli --algorithm=relaxed-bo --stream=1 --format=csv
//
// Useful for parameter exploration beyond the fixed figure benches.
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>

#include "exp/scenario.h"
#include "net/topology.h"
#include "stream/streaming.h"
#include "util/flags.h"

namespace {

using namespace omcast;

// Maps --`flag`'s value to its choice; an unknown value names the valid
// ones and exits 1.
template <typename T>
T ParseChoice(const util::FlagSet& flags, const std::string& flag,
              std::initializer_list<std::pair<const char*, T>> choices) {
  const std::string value = flags.GetString(flag);
  std::string valid;
  for (const auto& [name, choice] : choices) {
    if (value == name) return choice;
    if (!valid.empty()) valid += '|';
    valid += name;
  }
  std::cerr << "unknown " << flag << " '" << value << "' (" << valid << ")\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags;
  flags.Define("algorithm", "rost", "min-depth|longest-first|relaxed-bo|relaxed-to|rost")
      .Define("topology", "paper", "paper|small|tiny")
      .Define("population", "2000", "steady-state size M")
      .Define("warmup", "5400", "warm-up seconds")
      .Define("measure", "3600", "measurement seconds")
      .Define("seed", "1", "RNG seed")
      .Define("rost-interval", "360", "ROST switching interval (s)")
      .Define("rost-referees", "0", "verify BTP claims via referees")
      .Define("gossip", "0", "use the real gossip membership service")
      .Define("stream", "0", "attach the streaming layer (starving ratio)")
      .Define("group", "3", "recovery group size (with --stream)")
      .Define("selection", "mlc", "mlc|random (with --stream)")
      .Define("mode", "coop", "coop|single (with --stream)")
      .Define("buffer", "5", "playback buffer seconds (with --stream)")
      .Define("format", "table", "table|csv");
  if (!flags.Parse(argc, argv)) return 1;

  const auto algorithm = ParseChoice<exp::Algorithm>(
      flags, "algorithm",
      {{"min-depth", exp::Algorithm::kMinDepth},
       {"longest-first", exp::Algorithm::kLongestFirst},
       {"relaxed-bo", exp::Algorithm::kRelaxedBo},
       {"relaxed-to", exp::Algorithm::kRelaxedTo},
       {"rost", exp::Algorithm::kRost}});
  const auto topology_params = ParseChoice<net::TopologyParams>(
      flags, "topology",
      {{"paper", net::PaperTopologyParams()},
       {"small", net::SmallTopologyParams()},
       {"tiny", net::TinyTopologyParams()}});
  const auto selection = ParseChoice<core::GroupSelection>(
      flags, "selection",
      {{"mlc", core::GroupSelection::kMlc},
       {"random", core::GroupSelection::kRandom}});
  const auto mode = ParseChoice<core::RecoveryMode>(
      flags, "mode",
      {{"coop", core::RecoveryMode::kCooperative},
       {"single", core::RecoveryMode::kSingleSource}});
  const bool csv =
      ParseChoice<bool>(flags, "format", {{"table", false}, {"csv", true}});
  rnd::Rng topo_rng(static_cast<std::uint64_t>(flags.GetInt("seed")) ^ 0x70706fULL);
  const net::Topology topology = net::Topology::Generate(topology_params, topo_rng);

  exp::ScenarioConfig config;
  config.population = flags.GetInt("population");
  config.warmup_s = flags.GetDouble("warmup");
  config.measure_s = flags.GetDouble("measure");
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  config.rost.switching_interval_s = flags.GetDouble("rost-interval");
  config.rost.use_referees = flags.GetBool("rost-referees");
  config.use_gossip = flags.GetBool("gossip");
  const exp::TreeScenarioResult tree =
      exp::RunTreeScenario(topology, algorithm, config);

  // The streaming layer rides a second run of the same scenario.
  double starving = 0.0;
  const bool with_stream = flags.GetBool("stream");
  if (with_stream) {
    stream::StreamParams sp;
    sp.recovery_group_size = flags.GetInt("group");
    sp.buffer_s = flags.GetDouble("buffer");
    sp.selection = selection;
    sp.mode = mode;
    starving = 100.0 * exp::RunStreamScenario(topology, algorithm, config, sp)
                           .avg_starving_ratio;
  }

  if (csv) {
    std::cout << "algorithm,population,disruptions,reconnections,delay_ms,"
                 "stretch,depth,starving_pct\n"
              << flags.GetString("algorithm") << ',' << config.population
              << ',' << tree.avg_disruptions << ',' << tree.avg_reconnections
              << ',' << tree.avg_delay_ms << ',' << tree.avg_stretch << ','
              << tree.avg_depth << ',' << starving << '\n';
  } else {
    std::cout << flags.GetString("algorithm") << " @ " << config.population
              << " members (" << flags.GetString("topology") << " topology)\n"
              << "  disruptions/node:  " << tree.avg_disruptions
              << "\n  reconnects/node:   " << tree.avg_reconnections
              << "\n  service delay:     " << tree.avg_delay_ms
              << " ms\n  stretch:           " << tree.avg_stretch
              << "\n  tree depth:        " << tree.avg_depth << "\n";
    if (with_stream)
      std::cout << "  starving ratio:    " << starving << " % (group "
                << flags.GetInt("group") << ", "
                << flags.GetString("selection") << ", "
                << flags.GetString("mode") << ")\n";
  }
  return 0;
}
