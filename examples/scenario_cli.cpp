// Ad-hoc scenario driver: run any algorithm / topology / workload
// combination from the command line and get a one-line (or CSV) summary.
//
//   ./examples/scenario_cli --algorithm=rost --population=2000
//   ./examples/scenario_cli --algorithm=relaxed-bo --stream=1 --format=csv
//
// Useful for parameter exploration beyond the fixed figure benches.
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "exp/scenario.h"
#include "metrics/collectors.h"
#include "net/topology.h"
#include "overlay/gossip.h"
#include "sim/simulator.h"
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
    valid += (valid.empty() ? "" : "|") + std::string(name);
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

  core::RostParams rost;
  rost.switching_interval_s = flags.GetDouble("rost-interval");
  rost.use_referees = flags.GetBool("rost-referees");

  sim::Simulator sim;
  overlay::Session session(sim, topology, exp::MakeProtocol(algorithm, rost),
                           overlay::SessionParams{},
                           static_cast<std::uint64_t>(flags.GetInt("seed")));
  std::unique_ptr<overlay::GossipService> gossip;
  if (flags.GetBool("gossip")) {
    gossip = std::make_unique<overlay::GossipService>(
        session, overlay::GossipParams{}, 0x905517);
    session.SetMembershipOracle(gossip.get());
  }
  std::unique_ptr<stream::StreamingLayer> streaming;
  if (flags.GetBool("stream")) {
    stream::StreamParams sp;
    sp.recovery_group_size = flags.GetInt("group");
    sp.buffer_s = flags.GetDouble("buffer");
    sp.selection = selection;
    sp.mode = mode;
    streaming = std::make_unique<stream::StreamingLayer>(session, sp, 0x57BEA);
  }

  metrics::MemberOutcomes outcomes(session);
  metrics::TreeSnapshots snapshots(session, 300.0);
  const double warmup = flags.GetDouble("warmup");
  const double end = warmup + flags.GetDouble("measure");
  outcomes.SetWindow(warmup, end);
  snapshots.Start(warmup, end);
  if (streaming) streaming->SetMeasurementWindow(warmup, end);

  const int population = flags.GetInt("population");
  session.Prepopulate(population);
  session.StartArrivals(population / rnd::kMeanLifetimeSeconds);
  sim.RunUntil(end);
  outcomes.HarvestAliveMembers();

  const double starving =
      streaming ? 100.0 * streaming->ratio_stat().mean() : 0.0;
  if (csv) {
    std::cout << "algorithm,population,disruptions,reconnections,delay_ms,"
                 "stretch,depth,starving_pct\n"
              << flags.GetString("algorithm") << ',' << population << ','
              << outcomes.disruptions().mean() << ','
              << outcomes.reconnections().mean() << ','
              << snapshots.delay_ms().mean() << ','
              << snapshots.stretch().mean() << ','
              << snapshots.depth().mean() << ',' << starving << '\n';
  } else {
    std::cout << flags.GetString("algorithm") << " @ " << population
              << " members (" << flags.GetString("topology") << " topology)\n"
              << "  disruptions/node:  " << outcomes.disruptions().mean()
              << "\n  reconnects/node:   " << outcomes.reconnections().mean()
              << "\n  service delay:     " << snapshots.delay_ms().mean()
              << " ms\n  stretch:           " << snapshots.stretch().mean()
              << "\n  tree depth:        " << snapshots.depth().mean() << "\n";
    if (streaming)
      std::cout << "  starving ratio:    " << starving << " % (group "
                << flags.GetInt("group") << ", "
                << flags.GetString("selection") << ", "
                << flags.GetString("mode") << ")\n";
  }
  return 0;
}
