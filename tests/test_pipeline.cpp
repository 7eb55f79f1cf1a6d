/**
 * @file
 * Pass-pipeline tests: QASM round-tripping of pipeline output,
 * structured-status surfacing, stage traces, reuse of one pipeline
 * across circuits, and the builder's mix-and-match scenario matrix.
 * The bundles' outputs themselves are pinned by
 * tests/test_grid_identity.cpp.
 */

#include <gtest/gtest.h>

#include "core/passes.hpp"
#include "ir/qasm.hpp"
#include "test_util.hpp"

namespace qc {
namespace {

using test::env;
using test::kSeed;

std::shared_ptr<const Machine>
machineForDay(int day)
{
    return std::make_shared<const Machine>(env().machineForDay(day));
}

/** Compiler options for one bundle, with a test-sized SMT budget. */
CompilerOptions
optionsFor(MapperKind kind)
{
    CompilerOptions opts;
    opts.mapper = kind;
    opts.smtTimeoutMs = 15'000;
    return opts;
}

/** Field-by-field bit-identity check, timing fields excluded. */
void
expectBitIdentical(const CompiledProgram &expected,
                   const CompiledProgram &actual)
{
    EXPECT_EQ(expected.mapperName, actual.mapperName);
    EXPECT_EQ(expected.programName, actual.programName);
    EXPECT_EQ(expected.layout, actual.layout);
    EXPECT_EQ(expected.junctions, actual.junctions);
    EXPECT_EQ(expected.duration, actual.duration);
    EXPECT_EQ(expected.swapCount, actual.swapCount);
    EXPECT_EQ(expected.logReliability, actual.logReliability);
    EXPECT_EQ(expected.predictedSuccess, actual.predictedSuccess);
    EXPECT_EQ(expected.solverOptimal, actual.solverOptimal);
    EXPECT_EQ(expected.solverStatus, actual.solverStatus);

    const Schedule &es = expected.schedule;
    const Schedule &as = actual.schedule;
    EXPECT_EQ(es.numHwQubits, as.numHwQubits);
    EXPECT_EQ(es.makespan, as.makespan);
    EXPECT_EQ(es.qubitFinish, as.qubitFinish);
    ASSERT_EQ(es.ops.size(), as.ops.size());
    for (size_t i = 0; i < es.ops.size(); ++i) {
        EXPECT_EQ(es.ops[i].gate, as.ops[i].gate) << "op " << i;
        EXPECT_EQ(es.ops[i].start, as.ops[i].start) << "op " << i;
        EXPECT_EQ(es.ops[i].duration, as.ops[i].duration) << "op " << i;
        EXPECT_EQ(es.ops[i].progGate, as.ops[i].progGate) << "op " << i;
        EXPECT_EQ(es.ops[i].isRouteSwap, as.ops[i].isRouteSwap)
            << "op " << i;
    }
    ASSERT_EQ(es.macros.size(), as.macros.size());
    for (size_t i = 0; i < es.macros.size(); ++i) {
        EXPECT_EQ(es.macros[i].progGate, as.macros[i].progGate);
        EXPECT_EQ(es.macros[i].start, as.macros[i].start);
        EXPECT_EQ(es.macros[i].duration, as.macros[i].duration);
    }
}

TEST(PipelineTraces, EveryStageIsTimedInOrder)
{
    PipelineResult r =
        standardPipeline(machineForDay(0),
                         optionsFor(MapperKind::GreedyE))
            .run(benchmarkByName("BV4").circuit);
    ASSERT_TRUE(r.ok());

    const auto &traces = r.program.stageTraces;
    ASSERT_EQ(traces.size(), 4u);
    EXPECT_EQ(traces[0].stage, "placement");
    EXPECT_EQ(traces[1].stage, "routing");
    EXPECT_EQ(traces[2].stage, "scheduling");
    EXPECT_EQ(traces[3].stage, "prediction");
    EXPECT_EQ(traces[0].pass, "GreedyE*");
    for (const StageTrace &t : traces)
        EXPECT_GE(t.seconds, 0.0);
    EXPECT_NE(traces[2].note.find("makespan"), std::string::npos);
    EXPECT_GE(r.program.compileSeconds, totalStageSeconds(traces));
}

TEST(PipelineStatus, OversizedProgramIsInfeasibleNotThrown)
{
    GridTopology small(2, 2);
    CalibrationModel model(small, kSeed);
    auto machine =
        std::make_shared<const Machine>(small, model.forDay(0));
    Benchmark b = benchmarkByName("BV6");

    for (MapperKind kind :
         {MapperKind::Qiskit, MapperKind::GreedyE, MapperKind::GreedyV,
          MapperKind::GreedyETrack}) {
        SCOPED_TRACE(mapperKindName(kind));
        PipelineResult r =
            standardPipeline(machine, optionsFor(kind)).run(b.circuit);
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.hasProgram);
        EXPECT_EQ(r.status.code, CompileStatusCode::Infeasible);
        EXPECT_FALSE(r.status.message.empty());
        EXPECT_FALSE(r.failedStage.empty());
        // The traces of the stages that ran are preserved.
        EXPECT_FALSE(r.program.stageTraces.empty());
    }

    // The facade keeps its throwing contract.
    CompilerOptions opts = optionsFor(MapperKind::GreedyE);
    NoiseAdaptiveCompiler compiler(small, model.forDay(0), opts);
    EXPECT_THROW(compiler.compile(b.circuit), FatalError);
    PipelineResult shim = compiler.compileWithStatus(b.circuit);
    EXPECT_EQ(shim.status.code, CompileStatusCode::Infeasible);
}

TEST(PipelineStatus, UnsatisfiableSolveProducesDegradedFallback)
{
    // A calibration whose T2 windows are shorter than any gate makes
    // the SMT coherence constraints unsatisfiable — deterministically,
    // unlike a wall-clock timeout. The pipeline degrades to the
    // trivial-layout fallback while the structured status reports the
    // solver failure and stage.
    GridTopology topo = GridTopology::ibmq16();
    Calibration cal = test::uniformCalibration(topo);
    cal.t2Us.assign(topo.numQubits(), 1e-3);
    auto machine = std::make_shared<const Machine>(topo, cal);

    PipelineResult r =
        standardPipeline(machine, optionsFor(MapperKind::TSmtStar))
            .run(benchmarkByName("BV4").circuit);
    ASSERT_TRUE(r.hasProgram);
    EXPECT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code, CompileStatusCode::Infeasible);
    EXPECT_EQ(r.failedStage, "placement");
    EXPECT_EQ(r.program.solverStatus, "unsat");
    EXPECT_FALSE(r.program.solverOptimal);
    EXPECT_GT(r.program.predictedSuccess, 0.0);
}

TEST(PipelineQasm, RoundTripPreservesSemanticsAndGateCounts)
{
    auto machine = machineForDay(0);
    for (MapperKind kind :
         {MapperKind::Qiskit, MapperKind::GreedyE,
          MapperKind::GreedyETrack, MapperKind::RSmtStar}) {
        SCOPED_TRACE(mapperKindName(kind));
        Benchmark b = benchmarkByName("Toffoli");
        PipelineResult r =
            standardPipeline(machine, optionsFor(kind)).run(b.circuit);
        ASSERT_TRUE(r.ok()) << r.status.message;

        Circuit hw = r.program.hwCircuit(b.circuit.numClbits());
        std::string qasm = emitQasm(hw);

        // Re-parses, computes the right answer, and preserves the
        // hardware CNOT count (routing SWAPs expand to 3 CNOTs).
        Circuit parsed = parseQasm(qasm, hw.name());
        EXPECT_EQ(parsed.numQubits(), machine->numQubits());
        EXPECT_EQ(idealOutcome(parsed), b.expected);
        EXPECT_EQ(parsed.cnotCount(),
                  r.program.schedule.hwCnotCount());

        // Emission is a fixpoint: parse(emit(x)) emits identically.
        EXPECT_EQ(emitQasm(parsed), qasm);
    }
}

TEST(PipelineBuilderApi, MixAndMatchScenarioMatrix)
{
    auto machine = machineForDay(0);
    Benchmark b = benchmarkByName("Adder");

    // A combination Table 1 never shipped: GreedyV* placement under
    // the live-tracking scheduler.
    Pipeline vtrack = Pipeline::forMachine(machine)
                          .placement(passes::greedyVertex())
                          .routing(passes::liveRouting())
                          .scheduling(passes::trackingScheduling())
                          .named("GreedyV*+track")
                          .build();
    PipelineResult rv = vtrack.run(b.circuit);
    ASSERT_TRUE(rv.ok()) << rv.status.message;
    EXPECT_EQ(rv.program.mapperName, "GreedyV*+track");
    EXPECT_GT(rv.program.predictedSuccess, 0.0);
    test::expectScheduleWellFormed(*machine, rv.program.schedule);

    // GreedyE* placement under rectangle-reservation best-duration
    // routing (previously only reachable through the SMT bundles).
    Pipeline err = Pipeline::forMachine(machine)
                       .placement(passes::greedyEdge())
                       .routing(passes::routeSelection(
                           RoutingPolicy::RectangleReservation,
                           RouteSelect::BestDuration))
                       .build();
    PipelineResult re = err.run(b.circuit);
    ASSERT_TRUE(re.ok()) << re.status.message;
    test::expectScheduleWellFormed(*machine, re.program.schedule);

    // Different routing policy => genuinely different configuration,
    // same placement.
    EXPECT_EQ(rv.program.layout.size(), re.program.layout.size());
}

TEST(PipelineBuilderApi, DefaultsAndIntrospection)
{
    auto machine = machineForDay(0);
    Pipeline pipe = Pipeline::forMachine(machine)
                        .placement(passes::greedyEdge())
                        .build();
    EXPECT_EQ(pipe.name(), "GreedyE*");
    ASSERT_EQ(pipe.stages().size(), 4u);
    EXPECT_EQ(std::string(pipe.stages()[1]->stage()), "routing");

    // Missing placement is a configuration error.
    EXPECT_THROW(Pipeline::forMachine(machine).build(), FatalError);

    // So is a mismatched routing/scheduling pairing: live routing
    // feeds only a live-routing scheduler, and vice versa.
    EXPECT_THROW(Pipeline::forMachine(machine)
                     .placement(passes::greedyEdge())
                     .routing(passes::liveRouting())
                     .build(), // defaults to the list scheduler
                 FatalError);
    EXPECT_THROW(Pipeline::forMachine(machine)
                     .placement(passes::greedyEdge())
                     .scheduling(passes::trackingScheduling())
                     .build(), // defaults to precomputed routing
                 FatalError);
}

TEST(PipelineBuilderApi, ReusableAcrossCircuitsAndDays)
{
    // One pipeline object, many compiles: results match fresh
    // pipelines (stateless passes).
    auto machine = machineForDay(2);
    CompilerOptions opts = optionsFor(MapperKind::GreedyV);
    Pipeline pipe = standardPipeline(machine, opts);
    for (const char *name : {"BV4", "Adder", "QFT"}) {
        Benchmark b = benchmarkByName(name);
        PipelineResult a = pipe.run(b.circuit);
        PipelineResult fresh =
            standardPipeline(machine, opts).run(b.circuit);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(fresh.ok());
        expectBitIdentical(fresh.program, a.program);
    }
}

} // namespace
} // namespace qc
