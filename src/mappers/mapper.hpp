/**
 * @file
 * The CompiledProgram artifact every compiler bundle produces (Table 1
 * of the paper enumerates the bundles) and the route-exact
 * reliability prediction the list-scheduled bundles fill it with.
 */

#ifndef QC_MAPPERS_MAPPER_HPP
#define QC_MAPPERS_MAPPER_HPP

#include <string>
#include <vector>

#include "ir/circuit.hpp"
#include "machine/machine.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule.hpp"
#include "support/status.hpp"

namespace qc {

/**
 * The output of one compilation: placement, timed hardware schedule,
 * and the model's own reliability/duration predictions.
 */
struct CompiledProgram
{
    std::string mapperName;
    std::string programName;

    std::vector<HwQubit> layout;   ///< program qubit -> hardware qubit
    std::vector<int> junctions;    ///< per gate one-bend route; empty ok
    Schedule schedule;

    Timeslot duration = 0;         ///< schedule makespan (timeslots)
    double logReliability = 0.0;   ///< sum log(eps) over CNOTs+readouts
    double predictedSuccess = 0.0; ///< exp(logReliability)
    int swapCount = 0;             ///< routing SWAPs in the schedule

    double compileSeconds = 0.0;
    bool solverOptimal = true;     ///< solver proved optimality
    std::string solverStatus;      ///< diagnostic (SMT variants)

    /** Per-stage wall times and notes (core/pipeline.hpp). */
    std::vector<StageTrace> stageTraces;

    /** Hardware-level circuit (Swaps preserved; QASM expands them). */
    Circuit hwCircuit(int n_clbits) const;
};

/**
 * Eq. 12-style unweighted log-reliability of a program under a fixed
 * layout: the sum of log readout reliabilities and log routed-CNOT EC
 * values, following the scheduler's own route choices so predictions
 * match the emitted code exactly (the pipeline's prediction pass).
 */
double predictLogReliability(const Machine &machine,
                             const Circuit &prog,
                             const std::vector<HwQubit> &layout,
                             const ListScheduler &scheduler);

} // namespace qc

#endif // QC_MAPPERS_MAPPER_HPP
