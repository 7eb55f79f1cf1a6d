#include "experiment.hpp"

namespace qc {

ExperimentEnv::ExperimentEnv(std::uint64_t seed, Topology topo,
                             CalibrationModelParams params)
    : seed_(seed), topo_(std::move(topo)), model_(topo_, seed, params)
{
}

Machine
ExperimentEnv::machineForDay(int day) const
{
    return Machine(topo_, model_.forDay(day));
}

MeasuredRun
runMeasured(const std::shared_ptr<const Machine> &machine,
            const Benchmark &bench, const CompilerOptions &options,
            int trials, std::uint64_t exec_seed)
{
    MeasuredRun run;
    run.benchmark = bench.name;
    run.compiled = standardPipeline(machine, options).compile(bench.circuit);
    run.mapper = run.compiled.mapperName;

    ExecutionOptions exec;
    exec.trials = trials;
    exec.seed = exec_seed;
    run.execution = runNoisy(*machine, run.compiled.schedule,
                             bench.circuit.numClbits(), bench.expected,
                             exec);
    return run;
}

} // namespace qc
