// Microbenchmarks (google-benchmark) for the building blocks on the hot
// paths of the simulation: the event queue, the topology delay oracle,
// partial-tree construction + MLC selection, the per-outage recovery model,
// and a full small churn scenario.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "core/cer/mlc.h"
#include "core/cer/partial_tree.h"
#include "core/cer/recovery.h"
#include "exp/scenario.h"
#include "net/topology.h"
#include "rand/rng.h"
#include "sim/simulator.h"

namespace {

using namespace omcast;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    long count = 0;
    for (int i = 0; i < n; ++i)
      sim.ScheduleAt(static_cast<double>(i % 97), [&count] { ++count; });
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// --- heap vs calendar at scale ---------------------------------------------
//
// The steady-state shape of the churn workload: a large standing set of
// pending timers (heartbeat periods, suspicion deadlines, departures) while
// the run loop continuously dispatches near-future events and schedules
// replacements. Each benchmark pre-populates `n` pending events, then
// measures one of the three queue operations the hot path is made of.
// Timer deadlines mix three scales (1s heartbeats, 4s suspicions, long-tail
// lifetimes) like the real session does.

double MixedDeadline(rnd::Rng& rng) {
  const double u = rng.Uniform(0.0, 1.0);
  if (u < 0.45) return rng.Uniform(0.0, 1.0);        // heartbeat period
  if (u < 0.90) return rng.Uniform(3.0, 5.0);        // suspicion deadline
  return rng.ExponentialMean(1809.0);                // member lifetime
}

sim::QueueKind KindArg(const benchmark::State& state) {
  return state.range(1) == 0 ? sim::QueueKind::kBinaryHeap
                             : sim::QueueKind::kCalendar;
}

void QueueScaleArgs(benchmark::internal::Benchmark* b) {
  for (long n : {10000L, 100000L, 1000000L, 10000000L})
    for (long kind : {0L, 1L}) b->Args({n, kind});
}

void BM_QueueScheduleAtScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator sim(KindArg(state));
  rnd::Rng rng(42);
  for (int i = 0; i < n; ++i)
    sim.ScheduleAt(MixedDeadline(rng), [] {}, "bench.standing");
  for (auto _ : state) {
    const sim::EventId id =
        sim.ScheduleAt(MixedDeadline(rng), [] {}, "bench.probe");
    benchmark::DoNotOptimize(id);
    state.PauseTiming();
    sim.Cancel(id);  // keep the pending set at n
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueScheduleAtScale)->Apply(QueueScaleArgs);

void BM_QueueCancelAtScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator sim(KindArg(state));
  rnd::Rng rng(42);
  for (int i = 0; i < n; ++i)
    sim.ScheduleAt(MixedDeadline(rng), [] {}, "bench.standing");
  for (auto _ : state) {
    state.PauseTiming();
    const sim::EventId id =
        sim.ScheduleAt(MixedDeadline(rng), [] {}, "bench.probe");
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.Cancel(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueCancelAtScale)->Apply(QueueScaleArgs);

// The heartbeat-monitor pattern: every delivered beat cancels its child's
// suspicion deadline and re-arms it 4 s out. n monitors pend; each member
// beats once per simulated second, in turn, and the clock advances a second
// per round (which also sweeps the binary heap's cancelled tombstones).
void BM_QueueRearmAtScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator sim(KindArg(state));
  const double step = 1.0 / n;
  std::vector<sim::EventId> monitor(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    monitor[static_cast<std::size_t>(i)] =
        sim.ScheduleAt(4.0 + i * step, [] {}, "bench.monitor");
  int i = 0;
  for (auto _ : state) {
    sim::EventId& id = monitor[static_cast<std::size_t>(i)];
    benchmark::DoNotOptimize(sim.Cancel(id));
    id = sim.ScheduleAt(sim.now() + i * step + 4.0, [] {}, "bench.monitor");
    benchmark::DoNotOptimize(id);
    if (++i == n) {
      i = 0;
      sim.RunUntil(sim.now() + 1.0);  // every deadline is >= 3 s further
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueRearmAtScale)->Apply(QueueScaleArgs);

void BM_QueueDispatchAtScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator sim(KindArg(state));
  rnd::Rng rng(42);
  // Self-renewing timers: each dispatch schedules its replacement, so the
  // pending set stays at n however long the benchmark iterates.
  std::function<void()> renew;
  long fired = 0;
  renew = [&] {
    ++fired;
    sim.ScheduleAfter(MixedDeadline(rng), renew, "bench.renew");
    sim.Stop();  // one dispatch per Run() call
  };
  for (int i = 0; i < n; ++i)
    sim.ScheduleAt(MixedDeadline(rng), renew, "bench.renew");
  for (auto _ : state) {
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueDispatchAtScale)->Apply(QueueScaleArgs);

// --- exact hierarchical vs landmark delay oracle ---------------------------
//
// Same topology size (~110k stub hosts, the 10^5-member sweep cell), both
// delay models, uniform random host pairs: the per-query cost that multiplies
// into every heartbeat delivery and every BTP candidate evaluation.

const net::Topology& OracleTopology(bool landmark) {
  auto make = [](net::DelayModel model) {
    net::TopologyParams p = net::ScaleTopologyParams(110000);
    p.delay_model = model;
    p.keep_flat_edges = false;
    rnd::Rng rng(7);
    return new net::Topology(net::Topology::Generate(p, rng));
  };
  static const net::Topology* hier = make(net::DelayModel::kHierarchical);
  static const net::Topology* land = make(net::DelayModel::kLandmark);
  return landmark ? *land : *hier;
}

void BM_DelayOracleAtScale(benchmark::State& state) {
  const net::Topology& t = OracleTopology(state.range(0) == 1);
  rnd::Rng pick(2);
  const auto hosts = static_cast<std::size_t>(t.num_stub_nodes());
  for (auto _ : state) {
    const auto a = static_cast<net::HostId>(pick.UniformIndex(hosts));
    const auto b = static_cast<net::HostId>(pick.UniformIndex(hosts));
    benchmark::DoNotOptimize(t.Delay(a, b));
  }
  state.SetLabel(state.range(0) == 1 ? "landmark" : "hierarchical");
}
BENCHMARK(BM_DelayOracleAtScale)->Arg(0)->Arg(1);

void BM_TopologyGenerate(benchmark::State& state) {
  for (auto _ : state) {
    rnd::Rng rng(1);
    const net::Topology t =
        net::Topology::Generate(net::PaperTopologyParams(), rng);
    benchmark::DoNotOptimize(t.num_stub_nodes());
  }
}
BENCHMARK(BM_TopologyGenerate)->Unit(benchmark::kMillisecond);

void BM_DelayOracle(benchmark::State& state) {
  rnd::Rng rng(1);
  const net::Topology t =
      net::Topology::Generate(net::PaperTopologyParams(), rng);
  rnd::Rng pick(2);
  for (auto _ : state) {
    const auto a = static_cast<net::HostId>(
        pick.UniformIndex(static_cast<std::size_t>(t.num_stub_nodes())));
    const auto b = static_cast<net::HostId>(
        pick.UniformIndex(static_cast<std::size_t>(t.num_stub_nodes())));
    benchmark::DoNotOptimize(t.Delay(a, b));
  }
}
BENCHMARK(BM_DelayOracle);

void BM_MlcSelection(benchmark::State& state) {
  // A realistic partial view: ~100 known members of a churned overlay.
  sim::Simulator sim;
  rnd::Rng topo_rng(1);
  const net::Topology topo =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  overlay::Session session(sim, topo,
                           exp::MakeProtocol(exp::Algorithm::kMinDepth,
                                             core::RostParams{}),
                           overlay::SessionParams{}, 3);
  session.Prepopulate(800);
  sim.RunUntil(600.0);
  rnd::Rng rng(7);
  for (auto _ : state) {
    const auto known = session.SampleCandidates(100, overlay::kNoNode);
    const core::PartialTree view = core::PartialTree::Build(session.tree(), known);
    benchmark::DoNotOptimize(
        core::FindMlcGroup(view, 3, overlay::kNoNode, rng));
  }
}
BENCHMARK(BM_MlcSelection);

void BM_SimulateOutage(benchmark::State& state) {
  core::OutageSpec spec;
  spec.chain = {{true, 0.3, 0.01}, {true, 0.4, 0.01}, {true, 0.2, 0.01}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimulateOutage(spec));
  }
}
BENCHMARK(BM_SimulateOutage);

void BM_ChurnScenario(benchmark::State& state) {
  rnd::Rng topo_rng(1);
  const net::Topology topo =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  for (auto _ : state) {
    exp::ScenarioConfig config;
    config.population = 500;
    config.warmup_s = 600.0;
    config.measure_s = 600.0;
    config.seed = 5;
    benchmark::DoNotOptimize(
        RunTreeScenario(topo, exp::Algorithm::kRost, config));
  }
}
BENCHMARK(BM_ChurnScenario)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
