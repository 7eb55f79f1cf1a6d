#include "pipeline.hpp"

#include <chrono>
#include <utility>

#include "core/passes.hpp"
#include "support/logging.hpp"

namespace qc {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

void
CompileContext::addNote(const std::string &text)
{
    if (!note.empty())
        note += "; ";
    note += text;
}

PipelineBuilder
Pipeline::forMachine(std::shared_ptr<const Machine> machine)
{
    return PipelineBuilder(std::move(machine));
}

PipelineResult
Pipeline::run(const Circuit &prog, const CancelToken *cancel) const
{
    const auto t_run = Clock::now();

    CompileContext ctx;
    ctx.prog = &prog;
    ctx.machine = machine_;
    ctx.cancel = cancel;

    PipelineResult out;
    std::vector<StageTrace> traces;
    traces.reserve(passes_.size());

    for (const auto &pass : passes_) {
        const auto t0 = Clock::now();
        CompileStatus status;
        try {
            // Stage-boundary checkpoint; passes poll inside their own
            // loops for finer grain.
            throwIfCancelled(cancel, "cancelled between stages");
            status = pass->run(ctx);
        } catch (const CancelledError &e) {
            status = CompileStatus::cancelled(e.what());
            // A cancelled run never keeps a fallback artifact: the
            // caller raced it against rivals and wants it gone.
            ctx.degraded = false;
        } catch (const FatalError &e) {
            status = CompileStatus::infeasible(e.what());
            ctx.degraded = false;
        } catch (const std::exception &e) {
            status = CompileStatus::internalError(e.what());
            ctx.degraded = false;
        }

        StageTrace trace;
        trace.stage = pass->stage();
        trace.pass = pass->name();
        trace.seconds = secondsSince(t0);
        trace.note = std::move(ctx.note);
        ctx.note.clear();
        traces.push_back(std::move(trace));

        if (!status.ok()) {
            if (!ctx.degraded) {
                // A hard failure ends the run, and its diagnostic
                // wins over any earlier degraded status — the
                // fallback program that status promised never
                // materialized.
                out.status = status;
                out.failedStage = pass->stage();
                out.program.mapperName = name_;
                out.program.programName = prog.name();
                out.program.stageTraces = std::move(traces);
                out.program.compileSeconds = secondsSince(t_run);
                return out;
            }
            // Degraded: a fallback artifact was installed, downstream
            // stages still run; remember the first such status.
            if (out.status.ok()) {
                out.status = status;
                out.failedStage = pass->stage();
            }
            ctx.degraded = false;
        }
    }

    out.hasProgram = true;
    CompiledProgram &p = out.program;
    p.mapperName = name_;
    p.programName = prog.name();
    p.layout = std::move(ctx.layout);
    p.junctions = ctx.schedOptions.fixedJunctions;
    p.schedule = std::move(ctx.schedule);
    p.duration = ctx.duration;
    p.swapCount = ctx.swapCount;
    p.logReliability = ctx.logReliability;
    p.predictedSuccess = ctx.predictedSuccess;
    p.solverOptimal = ctx.solverOptimal;
    p.solverStatus = ctx.solverStatus;
    p.stageTraces = std::move(traces);

    if (verifies()) {
        const auto t_verify = Clock::now();
        const ProgramVerifier verifier(
            *machine_, verifyOptionsFor(ctx.schedOptions));
        const VerifyReport report = verifier.verify(prog, p);
        if (!report.ok()) {
            // The program stays available (hasProgram) so callers can
            // inspect the rejected artifact, but the status makes it
            // unusable: the service and daemon only cache ok results,
            // and portfolio candidates need ok() to be eligible.
            out.status = CompileStatus::verifyFailed(
                report.toString());
            out.failedStage = "verification";
            StageTrace vtrace;
            vtrace.stage = "verification";
            vtrace.pass = "translation-validate";
            vtrace.seconds = secondsSince(t_verify);
            vtrace.note = std::to_string(report.errorCount()) +
                          " error(s), " +
                          std::to_string(report.warningCount()) +
                          " warning(s)";
            p.stageTraces.push_back(std::move(vtrace));
        }
    }

    p.compileSeconds = secondsSince(t_run);
    return out;
}

bool
Pipeline::verifies() const
{
    switch (verify_) {
      case PipelineVerify::On: return true;
      case PipelineVerify::Off: return false;
      case PipelineVerify::Default: return defaultVerifyEnabled();
    }
    return false;
}

VerifyOptions
Pipeline::verifyOptionsFor(const SchedulerOptions &schedOptions) const
{
    VerifyOptions opts;
    // The list-scheduler bundles route via expandRoute, whose restore
    // SWAPs undo every chain; the tracking router's layout drifts.
    opts.expectRestoredLayout = !routesLive_;
    opts.durations = routesLive_ || schedOptions.calibratedDurations
                         ? VerifyDurations::Calibrated
                         : VerifyDurations::Uniform;
    return opts;
}

CompiledProgram
Pipeline::compile(const Circuit &prog) const
{
    PipelineResult result = run(prog);
    if (!result.hasProgram)
        throw FatalError(result.status.message);
    // Verification failures stay loud under the throwing contract:
    // returning a program the validator rejected would hand callers a
    // silently-broken executable.
    if (result.status.code == CompileStatusCode::VerifyFailed)
        throw FatalError(result.status.message);
    return std::move(result.program);
}

PipelineBuilder::PipelineBuilder(std::shared_ptr<const Machine> machine)
    : machine_(std::move(machine))
{
    QC_ASSERT(machine_ != nullptr, "pipeline needs a machine snapshot");
}

PipelineBuilder &
PipelineBuilder::placement(std::unique_ptr<PlacementPass> pass)
{
    placement_ = std::move(pass);
    return *this;
}

PipelineBuilder &
PipelineBuilder::routing(std::unique_ptr<RoutingPass> pass)
{
    routing_ = std::move(pass);
    return *this;
}

PipelineBuilder &
PipelineBuilder::scheduling(std::unique_ptr<SchedulingPass> pass)
{
    scheduling_ = std::move(pass);
    return *this;
}

PipelineBuilder &
PipelineBuilder::prediction(std::unique_ptr<PredictionPass> pass)
{
    prediction_ = std::move(pass);
    return *this;
}

PipelineBuilder &
PipelineBuilder::named(std::string name)
{
    name_ = std::move(name);
    return *this;
}

PipelineBuilder &
PipelineBuilder::verification(PipelineVerify mode)
{
    verify_ = mode;
    return *this;
}

Pipeline
PipelineBuilder::build()
{
    if (!placement_)
        QC_FATAL("pipeline needs a placement pass "
                 "(PipelineBuilder::placement was never called)");
    if (!routing_)
        routing_ = passes::routeSelection(RoutingPolicy::OneBendPath,
                                          RouteSelect::BestReliability);
    if (!scheduling_)
        scheduling_ = passes::listScheduling();
    if (!prediction_)
        prediction_ = passes::reliabilityPrediction();

    // A live routing stage must feed a live-routing scheduler and
    // vice versa — otherwise the scheduler would run on route
    // configuration that was never produced (or silently ignore one
    // that was), with stage traces describing work that never
    // happened.
    if (routing_->routesLive() != scheduling_->routesLive())
        QC_FATAL("mismatched pipeline: routing pass '",
                 routing_->name(), "' ",
                 routing_->routesLive() ? "routes live"
                                        : "precomputes routes",
                 " but scheduling pass '", scheduling_->name(), "' ",
                 scheduling_->routesLive()
                     ? "chooses routes itself"
                     : "consumes precomputed routes");

    Pipeline pipeline;
    pipeline.machine_ = std::move(machine_);
    pipeline.verify_ = verify_;
    pipeline.routesLive_ = scheduling_->routesLive();
    pipeline.name_ =
        name_.empty() ? placement_->name() : std::move(name_);
    pipeline.passes_.push_back(std::move(placement_));
    pipeline.passes_.push_back(std::move(routing_));
    pipeline.passes_.push_back(std::move(scheduling_));
    pipeline.passes_.push_back(std::move(prediction_));
    return pipeline;
}

} // namespace qc
