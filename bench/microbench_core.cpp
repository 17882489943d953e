/// \file microbench_core.cpp
/// google-benchmark microbenchmarks of the simulator's hot paths: the
/// per-cycle cost of a network step across mesh sizes and loads, router
/// pipeline stages, allocator/arbiter primitives, RNG, VF lookups, and —
/// the headline set — end-to-end `Simulator::run` across mesh size ×
/// offered load × island partition × thermal. These guard the simulation
/// throughput the figure benches depend on; `bench/perf_baseline` turns a
/// subset into the tracked `BENCH_core.json` trajectory.

#include <benchmark/benchmark.h>

#include <string>

#include "common/rng.hpp"
#include "noc/allocator.hpp"
#include "noc/arbiter.hpp"
#include "noc/network.hpp"
#include "power/energy_model.hpp"
#include "power/vf_curve.hpp"
#include "sim/scenario.hpp"
#include "traffic/pattern.hpp"
#include "traffic/traffic_model.hpp"

namespace {

using namespace nocdvfs;

void BM_RngRaw(benchmark::State& state) {
  common::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.raw());
}
BENCHMARK(BM_RngRaw);

void BM_RngBernoulli(benchmark::State& state) {
  common::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.bernoulli(0.1));
}
BENCHMARK(BM_RngBernoulli);

void BM_RoundRobinArbiter(benchmark::State& state) {
  noc::RoundRobinArbiter arb(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (int i = 0; i < arb.size(); i += 2) arb.add_request(i);
    benchmark::DoNotOptimize(arb.arbitrate());
  }
}
BENCHMARK(BM_RoundRobinArbiter)->Arg(5)->Arg(8)->Arg(16);

void BM_SeparableAllocator(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  noc::SeparableAllocator alloc(n, 1, n);
  for (auto _ : state) {
    for (int a = 0; a < n; a += 2) {
      alloc.add_request(a, 0, (std::uint64_t{1} << ((a + 1) % n)) |
                                  (std::uint64_t{1} << ((a + 3) % n)));
    }
    benchmark::DoNotOptimize(alloc.allocate().size());
  }
}
BENCHMARK(BM_SeparableAllocator)->Arg(8)->Arg(40);

void BM_PatternPick(benchmark::State& state) {
  noc::MeshTopology topo(8, 8);
  auto pattern = traffic::TrafficPattern::create("uniform", topo);
  common::Rng rng(1);
  noc::NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern->pick(src, rng));
    src = (src + 1) % 64;
  }
}
BENCHMARK(BM_PatternPick);

void BM_VfCurveLookup(benchmark::State& state) {
  const power::VfCurve curve = power::VfCurve::fdsoi28();
  double f = 333e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.voltage_for(f));
    f += 1e6;
    if (f > 1e9) f = 333e6;
  }
}
BENCHMARK(BM_VfCurveLookup);

void BM_EnergyEventBatch(benchmark::State& state) {
  const power::EnergyModel model(power::EnergyModel::reference_geometry());
  power::ActivityCounters a;
  a.buffer_writes = 1000;
  a.buffer_reads = 1000;
  a.crossbar_traversals = 1000;
  a.link_flit_hops = 1200;
  for (auto _ : state) benchmark::DoNotOptimize(model.event_energy_j(a, 0.75));
}
BENCHMARK(BM_EnergyEventBatch);

/// Full network cycle cost vs mesh size at a moderate load. The counter
/// `items_processed` makes the per-cycle cost directly readable.
void BM_NetworkStep(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const double lambda = static_cast<double>(state.range(1)) / 100.0;
  noc::NetworkConfig cfg;
  cfg.width = k;
  cfg.height = k;
  noc::Network net(cfg);
  noc::MeshTopology topo(k, k);
  traffic::SyntheticTrafficParams params;
  params.lambda = lambda;
  params.packet_size = 20;
  traffic::SyntheticTraffic gen(topo, params);
  // Warm the network into steady state.
  for (int i = 0; i < 2000; ++i) {
    gen.node_tick(net.cycle() * 1000, net.cycle(), net);
    net.step((net.cycle() + 1) * 1000);
    net.delivered().clear();
  }
  for (auto _ : state) {
    gen.node_tick(net.cycle() * 1000, net.cycle(), net);
    net.step((net.cycle() + 1) * 1000);
    net.delivered().clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkStep)
    ->Args({5, 5})
    ->Args({5, 20})
    ->Args({5, 35})
    ->Args({8, 20})
    ->Args({4, 20});

/// Skip-idle vs always-step on an idle mesh — the cost of a quiescent
/// cycle under each discipline (the activity-list win in isolation).
void BM_NetworkStepIdle(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  noc::NetworkConfig cfg;
  cfg.width = k;
  cfg.height = k;
  cfg.skip_idle = state.range(1) != 0;
  noc::Network net(cfg);
  for (int i = 0; i < 10; ++i) net.step((net.cycle() + 1) * 1000);  // park everyone
  for (auto _ : state) net.step((net.cycle() + 1) * 1000);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkStepIdle)
    ->ArgNames({"k", "skip"})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 0})
    ->Args({32, 1});

/// End-to-end simulator runs: the full matrix the perf baseline samples —
/// mesh size × offered load × island partition × thermal. Short fixed
/// phases (no adaptive warmup) keep each iteration bounded; items processed
/// counts simulated node cycles, so `items_per_second` reads as simulated
/// cycles per wall second.
void BM_SimulatorRun(benchmark::State& state, sim::Scenario s) {
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const sim::RunResult r = sim::run(s);
    benchmark::DoNotOptimize(r.packets_delivered);
    cycles += s.phases.warmup_node_cycles + s.phases.measure_node_cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}

const int kSimulatorRunMatrix = [] {
  for (const int k : {8, 16, 32}) {
    for (const auto& [load_name, lambda] :
         {std::pair{"idle", 0.0}, {"low", 0.01}, {"sat", 0.5}}) {
      for (const char* islands : {"global", "quadrants"}) {
        for (const bool thermal : {false, true}) {
          sim::Scenario s;
          s.network.width = k;
          s.network.height = k;
          s.lambda = lambda;
          s.packet_size = 20;
          s.islands = islands;
          s.thermal = thermal;
          s.seed = 1;
          s.control_period = 5000;
          s.phases.warmup_node_cycles = 500;
          s.phases.measure_node_cycles = 2500;
          s.phases.adaptive_warmup = false;
          const std::string name = "BM_SimulatorRun/" + std::to_string(k) + "x" +
                                   std::to_string(k) + "_" + load_name + "_" + islands +
                                   (thermal ? "_thermal" : "_cold");
          benchmark::RegisterBenchmark(name.c_str(), BM_SimulatorRun, s)
              ->Unit(benchmark::kMillisecond);
        }
      }
    }
  }
  return 0;
}();

}  // namespace

BENCHMARK_MAIN();
