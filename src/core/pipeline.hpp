/**
 * @file
 * Staged pass-pipeline compiler API.
 *
 * The paper's compiler is logically a sequence of stages — qubit
 * placement (Table 1's variants), route selection, gate scheduling,
 * reliability prediction — and this header makes that sequence the
 * API: a CompileContext carries the circuit, the machine snapshot and
 * every evolving artifact through a vector of composable passes, a
 * Pipeline runs them with per-stage wall-clock tracing, and failures
 * surface as structured CompileStatus values instead of thrown
 * FatalErrors. Any placement can be paired with any routing policy or
 * scheduler — a scenario matrix instead of Table 1's fixed bundles:
 *
 *   Pipeline pipe = Pipeline::forMachine(snapshot)
 *                       .placement(passes::greedyEdge())
 *                       .routing(passes::routeSelection(
 *                           RoutingPolicy::RectangleReservation,
 *                           RouteSelect::BestDuration))
 *                       .build();
 *   PipelineResult r = pipe.run(circuit);
 *   if (r.hasProgram) use(r.program);  // ok, or a degraded fallback
 *   if (!r.ok())      report(r.status, r.failedStage);
 *
 * The Table 1 bundles are available as standardPipeline() in
 * core/compiler.hpp; NoiseAdaptiveCompiler is a thin shim over them.
 */

#ifndef QC_CORE_PIPELINE_HPP
#define QC_CORE_PIPELINE_HPP

#include <memory>
#include <string>
#include <vector>

#include "ir/circuit.hpp"
#include "machine/machine.hpp"
#include "mappers/mapper.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule.hpp"
#include "support/cancel.hpp"
#include "support/status.hpp"
#include "verify/verifier.hpp"

namespace qc {

/**
 * Whether a pipeline runs the translation validator
 * (verify/verifier.hpp) on every program it assembles. Default defers
 * to defaultVerifyEnabled(): on in Debug builds, off in Release,
 * either way overridable with the QC_VERIFY environment variable.
 */
enum class PipelineVerify {
    Default, ///< follow defaultVerifyEnabled()
    On,      ///< always verify (naqc --verify, CI)
    Off,     ///< never verify
};

/**
 * Everything a compilation carries between passes: the inputs
 * (circuit + machine snapshot) and the artifacts each stage produces
 * for the next one. Passes read what upstream stages wrote and fill
 * in their own slice; Pipeline::run assembles the final
 * CompiledProgram from the completed context.
 */
struct CompileContext
{
    const Circuit *prog = nullptr;
    std::shared_ptr<const Machine> machine;

    /**
     * Cooperative cancellation handle, null when the run is not
     * cancellable. Passes forward it into their expensive inner loops
     * (SMT solver ticks, SABRE iterations, scheduler steps); those
     * unwind with CancelledError, which Pipeline::run maps to
     * CompileStatusCode::Cancelled.
     */
    const CancelToken *cancel = nullptr;

    // --- placement artifacts ---------------------------------------
    std::vector<HwQubit> layout;   ///< program qubit -> hardware qubit
    std::vector<int> junctions;    ///< per-gate one-bend junction, if
                                   ///< the placement stage fixed routes

    // --- routing artifacts -----------------------------------------
    SchedulerOptions schedOptions; ///< realized route-selection config

    // --- scheduling artifacts --------------------------------------
    Schedule schedule;
    Timeslot duration = 0;
    int swapCount = 0;

    // --- prediction artifacts --------------------------------------
    double logReliability = 0.0;
    double predictedSuccess = 0.0;
    bool hasPrediction = false;    ///< a scheduler predicted inline

    // --- solver diagnostics ----------------------------------------
    bool solverOptimal = true;
    std::string solverStatus;

    /**
     * Set by a pass that returns a non-ok status but installed a
     * usable fallback artifact (e.g. the SMT placement's trivial
     * layout on solver timeout): the pipeline records the status but
     * keeps running so callers still get a program.
     */
    bool degraded = false;

    std::string note;              ///< pending trace note (addNote)

    const Circuit &circuit() const { return *prog; }
    const Machine &mach() const { return *machine; }

    /** Append a diagnostic to the current stage's trace note. */
    void addNote(const std::string &text);
};

/**
 * One pipeline stage. Implementations must be deterministic and
 * reusable across circuits (run() is const; all per-compilation state
 * lives in the context).
 */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stage role label ("placement", "routing", ...). */
    virtual const char *stage() const = 0;

    /** Pass name within the stage ("GreedyE*", "1BP", "list", ...). */
    virtual std::string name() const = 0;

    /**
     * Run the stage. Return a non-ok status to report failure; set
     * ctx.degraded as well if a fallback artifact was installed and
     * downstream stages should still run. Thrown FatalErrors are
     * mapped to CompileStatus::infeasible, other exceptions to
     * internalError.
     */
    virtual CompileStatus run(CompileContext &ctx) const = 0;
};

/** Marker base: produces ctx.layout (and possibly ctx.junctions). */
class PlacementPass : public Pass
{
  public:
    const char *stage() const override { return "placement"; }
};

/** Marker base: produces ctx.schedOptions. */
class RoutingPass : public Pass
{
  public:
    const char *stage() const override { return "routing"; }

    /**
     * True when this stage produces no precomputed route
     * configuration because the scheduler routes live. The builder
     * requires it to match the scheduling pass's routesLive().
     */
    virtual bool routesLive() const { return false; }
};

/** Marker base: produces ctx.schedule/duration/swapCount. */
class SchedulingPass : public Pass
{
  public:
    const char *stage() const override { return "scheduling"; }

    /**
     * True when this scheduler chooses routes itself (ignoring
     * ctx.schedOptions), like the tracking router.
     */
    virtual bool routesLive() const { return false; }
};

/** Marker base: produces ctx.logReliability/predictedSuccess. */
class PredictionPass : public Pass
{
  public:
    const char *stage() const override { return "prediction"; }
};

/** Outcome of Pipeline::run: structured status + program + traces. */
struct PipelineResult
{
    CompileStatus status;

    /**
     * Stage whose failure produced `status`; empty when ok. Set even
     * when a fallback let the pipeline finish (degraded results).
     */
    std::string failedStage;

    /**
     * The compiled artifact. Semantic fields are valid iff
     * hasProgram; stageTraces are always filled (failed runs keep the
     * traces of the stages that did run, so callers can see where
     * the compilation died and how long it took to get there).
     */
    CompiledProgram program;
    bool hasProgram = false;

    bool ok() const { return status.ok(); }
};

class PipelineBuilder;

/**
 * An immutable, reusable sequence of compiler passes bound to one
 * machine snapshot. Thread-safe for concurrent run() calls (passes
 * are stateless between compilations).
 */
class Pipeline
{
  public:
    /** Start building a pipeline for a shared machine snapshot. */
    static PipelineBuilder forMachine(
        std::shared_ptr<const Machine> machine);

    /**
     * Run every stage, never throwing for user-level failures:
     * infeasible inputs and solver timeouts come back as status
     * values with the traces of the stages that ran.
     *
     * A non-null `cancel` token makes the run cooperatively
     * cancellable: once requestCancel fires, the run stops at the
     * next stage boundary or in-stage checkpoint and returns a
     * CompileStatusCode::Cancelled status with no program (a
     * cancelled run never installs a degraded fallback).
     */
    PipelineResult run(const Circuit &prog,
                       const CancelToken *cancel = nullptr) const;

    /**
     * Throwing convenience: return the program, throwing FatalError
     * when no program could be produced or the validator rejected it
     * (degraded solver fallbacks still return their program).
     */
    CompiledProgram compile(const Circuit &prog) const;

    /** Display name, used as CompiledProgram::mapperName. */
    const std::string &name() const { return name_; }

    const Machine &machine() const { return *machine_; }
    const std::shared_ptr<const Machine> &machineSnapshot() const
    {
        return machine_;
    }

    /** The stages in execution order (introspection/tests). */
    const std::vector<std::shared_ptr<const Pass>> &stages() const
    {
        return passes_;
    }

    /** True when run() will verify its assembled programs. */
    bool verifies() const;

    /** True when the scheduling stage chooses routes itself. */
    bool routesLive() const { return routesLive_; }

    /**
     * The verification policy matching this pipeline's scheduler for
     * a given realized route-selection config: live-routing bundles
     * drift the layout and always use calibrated durations; the
     * list-scheduler bundles restore it and follow the routing pass's
     * calibratedDurations choice. Callers re-verifying a program
     * produced elsewhere should prefer VerifyDurations::Auto.
     */
    VerifyOptions verifyOptionsFor(
        const SchedulerOptions &schedOptions) const;

  private:
    friend class PipelineBuilder;
    Pipeline() = default;

    std::shared_ptr<const Machine> machine_;
    std::string name_;
    std::vector<std::shared_ptr<const Pass>> passes_;
    PipelineVerify verify_ = PipelineVerify::Default;
    bool routesLive_ = false; ///< scheduler chooses routes itself
};

/**
 * Fluent pipeline assembly:
 *
 *   Pipeline::forMachine(snapshot)
 *       .placement(passes::smt(opts))
 *       .routing(passes::routeSelection(policy, select))
 *       .scheduling(passes::listScheduling())
 *       .build();
 *
 * placement() is mandatory; the other stages default to the standard
 * combination (one-bend best-reliability routing, list scheduling,
 * route-exact reliability prediction). named() overrides the display
 * name, which otherwise is the placement pass's name.
 */
class PipelineBuilder
{
  public:
    explicit PipelineBuilder(std::shared_ptr<const Machine> machine);

    PipelineBuilder &placement(std::unique_ptr<PlacementPass> pass);
    PipelineBuilder &routing(std::unique_ptr<RoutingPass> pass);
    PipelineBuilder &scheduling(std::unique_ptr<SchedulingPass> pass);
    PipelineBuilder &prediction(std::unique_ptr<PredictionPass> pass);
    PipelineBuilder &named(std::string name);

    /** Translation-validation policy (default: Debug on, CI env). */
    PipelineBuilder &verification(PipelineVerify mode);

    /** Finalize. Throws FatalError if no placement pass was given. */
    Pipeline build();

  private:
    std::shared_ptr<const Machine> machine_;
    std::string name_;
    std::unique_ptr<PlacementPass> placement_;
    std::unique_ptr<RoutingPass> routing_;
    std::unique_ptr<SchedulingPass> scheduling_;
    std::unique_ptr<PredictionPass> prediction_;
    PipelineVerify verify_ = PipelineVerify::Default;
};

} // namespace qc

#endif // QC_CORE_PIPELINE_HPP
