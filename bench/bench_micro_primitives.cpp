/**
 * @file
 * Google-benchmark microbenchmarks for the library's primitives:
 * statevector gate application, Monte-Carlo trial throughput,
 * machine-table construction, scheduling and greedy mapping.
 */

#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "solver/bnb_placer.hpp"
#include "workloads/random_circuits.hpp"

namespace {

using namespace qc;

const std::uint64_t kSeed = 20190131;

const ExperimentEnv &
env()
{
    static ExperimentEnv e(kSeed);
    return e;
}

/** The GreedyE* bundle on `machine`. */
Pipeline
greedyEPipeline(std::shared_ptr<const Machine> machine)
{
    CompilerOptions opts;
    opts.mapper = MapperKind::GreedyE;
    return standardPipeline(std::move(machine), opts);
}

void
BM_StatevectorHadamards(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Statevector sv(n);
    for (auto _ : state) {
        for (int q = 0; q < n; ++q)
            sv.apply({Op::H, q, kInvalidQubit, -1});
        benchmark::DoNotOptimize(sv.amp(0));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StatevectorHadamards)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_StatevectorCnotLadder(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Statevector sv(n);
    sv.apply({Op::H, 0, kInvalidQubit, -1});
    for (auto _ : state) {
        for (int q = 0; q + 1 < n; ++q)
            sv.apply({Op::CNOT, q, q + 1, -1});
        benchmark::DoNotOptimize(sv.amp(0));
    }
    state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_StatevectorCnotLadder)->Arg(8)->Arg(16);

void
BM_MonteCarloTrialBv4(benchmark::State &state)
{
    auto m = std::make_shared<const Machine>(env().machineForDay(0));
    Benchmark b = benchmarkByName("BV4");
    CompiledProgram cp = greedyEPipeline(m).compile(b.circuit);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        ExecutionOptions opts;
        opts.trials = 1;
        opts.seed = ++seed;
        auto r = runNoisy(*m, cp.schedule, b.circuit.numClbits(),
                          b.expected, opts);
        benchmark::DoNotOptimize(r.successes);
    }
}
BENCHMARK(BM_MonteCarloTrialBv4);

void
BM_MachineConstruction(benchmark::State &state)
{
    Calibration cal = env().calibrationModel().forDay(0);
    for (auto _ : state) {
        Machine m(env().topo(), cal);
        benchmark::DoNotOptimize(m.bestPathReliability(0, 15));
    }
}
BENCHMARK(BM_MachineConstruction);

void
BM_ListSchedulerAdder(benchmark::State &state)
{
    Machine m = env().machineForDay(0);
    Benchmark b = benchmarkByName("Adder");
    ListScheduler sched(m, {});
    std::vector<HwQubit> layout{2, 1, 9, 10};
    for (auto _ : state) {
        Schedule s = sched.run(b.circuit, layout);
        benchmark::DoNotOptimize(s.makespan);
    }
}
BENCHMARK(BM_ListSchedulerAdder);

void
BM_GreedyEMapRandom(benchmark::State &state)
{
    const int qubits = static_cast<int>(state.range(0));
    GridTopology topo(qubits <= 16 ? 2 : 4, qubits <= 16 ? 8 : 8);
    CalibrationModel model(topo, kSeed);
    auto m = std::make_shared<const Machine>(topo, model.forDay(0));
    RandomCircuitSpec spec;
    spec.numQubits = qubits;
    spec.numGates = 256;
    spec.seed = kSeed;
    Circuit prog = makeRandomCircuit(spec);
    Pipeline pipeline = greedyEPipeline(m);
    for (auto _ : state) {
        CompiledProgram cp = pipeline.compile(prog);
        benchmark::DoNotOptimize(cp.duration);
    }
}
BENCHMARK(BM_GreedyEMapRandom)->Arg(8)->Arg(16)->Arg(32);

void
BM_BnbPlacerBenchmarks(benchmark::State &state)
{
    Machine m = env().machineForDay(0);
    auto all = paperBenchmarks();
    const Benchmark &b = all[static_cast<size_t>(state.range(0))];
    state.SetLabel(b.name);
    for (auto _ : state) {
        BnbPlacer placer(m, b.circuit);
        BnbResult r = placer.solve();
        benchmark::DoNotOptimize(r.objective);
    }
}
BENCHMARK(BM_BnbPlacerBenchmarks)->Arg(0)->Arg(2)->Arg(5)->Arg(11);

} // namespace

BENCHMARK_MAIN();
