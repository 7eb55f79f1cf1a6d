/**
 * @file
 * Shared experiment harness for the bench binaries: a reproducible
 * IBMQ16-like environment (topology + daily calibration stream) and
 * the compile-then-measure loop every figure reproduction uses.
 */

#ifndef QC_CORE_EXPERIMENT_HPP
#define QC_CORE_EXPERIMENT_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "machine/calibration_model.hpp"
#include "sim/executor.hpp"
#include "workloads/benchmarks.hpp"

namespace qc {

/**
 * One reproducible experiment environment.
 *
 * Owns the topology and the synthetic calibration source; hands out
 * per-day Machine views. The default is the paper's IBMQ16 (2x8 grid)
 * with seed-deterministic calibration.
 */
class ExperimentEnv
{
  public:
    explicit ExperimentEnv(std::uint64_t seed,
                           Topology topo = GridTopology::ibmq16(),
                           CalibrationModelParams params = {});

    const Topology &topo() const { return topo_; }
    const CalibrationModel &calibrationModel() const { return model_; }
    std::uint64_t seed() const { return seed_; }

    /** Machine of calibration day `day`. */
    Machine machineForDay(int day) const;

  private:
    std::uint64_t seed_;
    Topology topo_;
    CalibrationModel model_;
};

/** Outcome of compiling + measuring one benchmark with one mapper. */
struct MeasuredRun
{
    std::string benchmark;
    std::string mapper;
    CompiledProgram compiled;
    ExecutionResult execution;
};

/**
 * Compile a benchmark with the bundle described by `options` and
 * measure its success rate over `trials` Monte-Carlo repetitions.
 * Throws FatalError when the bundle produces no program.
 */
MeasuredRun runMeasured(const std::shared_ptr<const Machine> &machine,
                        const Benchmark &bench,
                        const CompilerOptions &options, int trials,
                        std::uint64_t exec_seed);

/** Default Z3 budget used by the bench harnesses (milliseconds). */
inline constexpr unsigned kBenchSmtTimeoutMs = 20'000;

/** Default Monte-Carlo trial count used by the bench harnesses. */
inline constexpr int kBenchTrials = 2000;

} // namespace qc

#endif // QC_CORE_EXPERIMENT_HPP
