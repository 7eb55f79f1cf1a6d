/**
 * @file
 * SMT bundle tests: the Z3 optimum must agree with the independent
 * branch-and-bound optimum on the reliability objective, duration
 * variants must prove optimality, solutions must be valid, and an
 * Eq. 12 weight outside [0, 1] is rejected.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "mappers/smt_mapper.hpp"
#include "solver/bnb_placer.hpp"
#include "solver/objective.hpp"
#include "test_util.hpp"
#include "workloads/random_circuits.hpp"

namespace qc {
namespace {

using test::day0Snapshot;
using test::expectScheduleWellFormed;

/** The standard `kind` bundle with a test-sized solver budget. */
CompilerOptions
smtOptions(MapperKind kind)
{
    CompilerOptions opts;
    opts.mapper = kind;
    opts.smtTimeoutMs = 30'000;
    return opts;
}

/** IBMQ16 with every edge and qubit identical. */
std::shared_ptr<const Machine>
uniformMachine()
{
    GridTopology topo = GridTopology::ibmq16();
    return std::make_shared<const Machine>(
        topo, test::uniformCalibration(topo));
}

class RsmtVsBnb : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RsmtVsBnb, PlacementObjectivesAgree)
{
    // Like-for-like cross-validation: Z3 in placement-only mode
    // solves exactly the branch-and-bound problem, so the optima
    // must coincide.
    auto m = day0Snapshot();
    Benchmark b = benchmarkByName(GetParam());

    CompilerOptions opts = smtOptions(MapperKind::RSmtStar);
    opts.readoutWeight = 0.5;
    opts.jointScheduling = false;
    CompiledProgram smt = standardPipeline(m, opts).compile(b.circuit);
    ASSERT_TRUE(smt.solverOptimal) << smt.solverStatus;

    BnbOptions bnb_opts;
    bnb_opts.readoutWeight = 0.5;
    BnbPlacer bnb(*m, b.circuit, bnb_opts);
    BnbResult br = bnb.solve();
    ASSERT_TRUE(br.optimal);

    double smt_obj =
        evaluateReliability(b.circuit, smt.layout, *m).weighted(0.5);
    EXPECT_NEAR(smt_obj, br.objective, 1e-6)
        << "Z3 and branch-and-bound disagree on " << b.name;
}

TEST_P(RsmtVsBnb, JointObjectiveNeverBeatsPlacementRelaxation)
{
    // The joint formulation adds constraints (coherence, routing
    // overlap), so its optimum can only be as good as or worse than
    // the placement-only relaxation the branch-and-bound solves.
    auto m = day0Snapshot();
    Benchmark b = benchmarkByName(GetParam());

    CompilerOptions opts = smtOptions(MapperKind::RSmtStar);
    opts.readoutWeight = 0.5;
    CompiledProgram smt = standardPipeline(m, opts).compile(b.circuit);
    ASSERT_TRUE(smt.solverOptimal) << smt.solverStatus;

    BnbOptions bnb_opts;
    bnb_opts.readoutWeight = 0.5;
    BnbPlacer bnb(*m, b.circuit, bnb_opts);
    BnbResult br = bnb.solve();
    ASSERT_TRUE(br.optimal);

    double smt_obj =
        evaluateReliability(b.circuit, smt.layout, *m).weighted(0.5);
    EXPECT_LE(smt_obj, br.objective + 1e-6) << b.name;
}

INSTANTIATE_TEST_SUITE_P(Paper, RsmtVsBnb,
                         ::testing::Values("BV4", "BV6", "HS2", "HS4",
                                           "QFT", "Peres", "Toffoli"));

TEST(SmtBundle, Names)
{
    SmtMapperOptions opts;
    opts.variant = SmtVariant::TSmt;
    opts.policy = RoutingPolicy::RectangleReservation;
    EXPECT_EQ(smtMapperDisplayName(opts), "T-SMT RR");
    opts.variant = SmtVariant::TSmtStar;
    opts.policy = RoutingPolicy::OneBendPath;
    EXPECT_EQ(smtMapperDisplayName(opts), "T-SMT* 1BP");
    opts.variant = SmtVariant::RSmtStar;
    opts.readoutWeight = 0.5;
    EXPECT_EQ(smtMapperDisplayName(opts), "R-SMT* w=0.5");

    // The standard bundles report the same names.
    auto m = day0Snapshot();
    CompilerOptions copts = smtOptions(MapperKind::TSmt);
    copts.policy = RoutingPolicy::RectangleReservation;
    EXPECT_EQ(standardPipeline(m, copts).name(), "T-SMT RR");
    EXPECT_EQ(standardPipeline(m, smtOptions(MapperKind::TSmtStar)).name(),
              "T-SMT* 1BP");
    EXPECT_EQ(standardPipeline(m, smtOptions(MapperKind::RSmtStar)).name(),
              "R-SMT* w=0.5");
}

TEST(SmtBundle, RSmtStarForcesOneBendPaths)
{
    SmtMapperOptions opts;
    opts.variant = SmtVariant::RSmtStar;
    opts.policy = RoutingPolicy::RectangleReservation;
    EXPECT_EQ(effectiveSmtOptions(opts).policy,
              RoutingPolicy::OneBendPath);

    // The bundle's routing stage follows the normalized policy.
    CompilerOptions copts = smtOptions(MapperKind::RSmtStar);
    copts.policy = RoutingPolicy::RectangleReservation;
    Pipeline pipe = standardPipeline(day0Snapshot(), copts);
    ASSERT_GE(pipe.stages().size(), 2u);
    EXPECT_EQ(pipe.stages()[1]->name(), "1BP");
}

TEST(SmtBundle, DurationVariantsProveOptimality)
{
    auto m = day0Snapshot();
    Benchmark b = benchmarkByName("BV4");
    for (MapperKind kind : {MapperKind::TSmt, MapperKind::TSmtStar}) {
        CompiledProgram cp =
            standardPipeline(m, smtOptions(kind)).compile(b.circuit);
        EXPECT_TRUE(cp.solverOptimal) << cp.solverStatus;
        expectScheduleWellFormed(*m, cp.schedule);
        validateLayout(cp.layout, b.circuit.numQubits(),
                       m->numQubits());
    }
}

TEST(SmtBundle, ZeroSwapBenchmarksGetZeroSwapsOnUniformMachine)
{
    // Star/pair interaction graphs embed in the grid: with uniform
    // error rates the optimal reliability mapping strictly prefers
    // adjacency, so it uses no qubit movement (paper Sec. 7). (On a
    // real calibration day, movement can legitimately win if it buys
    // much better readout qubits.)
    Pipeline pipe =
        standardPipeline(uniformMachine(), smtOptions(MapperKind::RSmtStar));
    for (const char *name : {"BV4", "BV8", "HS6", "QFT", "Adder"}) {
        CompiledProgram cp = pipe.compile(benchmarkByName(name).circuit);
        EXPECT_EQ(cp.swapCount, 0) << name;
    }
}

TEST(SmtBundle, TriangleBenchmarksNeedSwaps)
{
    // Triangles cannot embed in a bipartite grid: at least one routed
    // CNOT (there-and-back SWAP pair) is unavoidable.
    Pipeline pipe =
        standardPipeline(uniformMachine(), smtOptions(MapperKind::RSmtStar));
    for (const char *name : {"Toffoli", "Peres"}) {
        CompiledProgram cp = pipe.compile(benchmarkByName(name).circuit);
        EXPECT_GE(cp.swapCount, 2) << name;
    }
}

TEST(SmtBundle, JunctionsRecordedForCnots)
{
    Benchmark b = benchmarkByName("Toffoli");
    CompiledProgram cp =
        standardPipeline(day0Snapshot(), smtOptions(MapperKind::RSmtStar))
            .compile(b.circuit);
    ASSERT_EQ(cp.junctions.size(), b.circuit.size());
    for (size_t i = 0; i < b.circuit.size(); ++i) {
        if (b.circuit.gate(i).op == Op::CNOT)
            EXPECT_GE(cp.junctions[i], 0);
        else
            EXPECT_EQ(cp.junctions[i], -1);
    }
}

TEST(SmtBundle, OmegaOnePlacesMeasuredQubitsOnBestReadouts)
{
    // With w = 1 only readout terms score. Placement-only mode is
    // used because the joint formulation's coherence constraint can
    // legitimately veto far-apart readout-optimal placements (their
    // routed CNOTs run long) — exactly the Fig. 8c pathology.
    auto m = day0Snapshot();
    Benchmark b = benchmarkByName("HS2");
    CompilerOptions opts = smtOptions(MapperKind::RSmtStar);
    opts.readoutWeight = 1.0;
    opts.jointScheduling = false;
    CompiledProgram cp = standardPipeline(m, opts).compile(b.circuit);
    ASSERT_TRUE(cp.solverOptimal);
    auto order = m->qubitsByReadoutReliability();
    double best = std::log(m->cal().readoutReliability(order[0])) +
                  std::log(m->cal().readoutReliability(order[1]));
    double got = std::log(m->cal().readoutReliability(cp.layout[0])) +
                 std::log(m->cal().readoutReliability(cp.layout[1]));
    EXPECT_NEAR(got, best, 1e-9);
}

TEST(SmtBundle, OmegaOutsideUnitIntervalIsRejected)
{
    // Outside [0, 1] one Eq. 12 term would reward unreliable
    // hardware: the placement stage refuses instead of optimizing an
    // inverted objective.
    auto m = day0Snapshot();
    Benchmark b = benchmarkByName("BV4");
    for (double omega : {2.0, -1.0, std::nan("")}) {
        SCOPED_TRACE(omega);
        CompilerOptions opts = smtOptions(MapperKind::RSmtStar);
        opts.readoutWeight = omega;
        PipelineResult r = standardPipeline(m, opts).run(b.circuit);
        EXPECT_FALSE(r.hasProgram);
        EXPECT_EQ(r.status.code, CompileStatusCode::Infeasible);
        EXPECT_EQ(r.failedStage, "placement");
        EXPECT_NE(r.status.message.find("omega"), std::string::npos)
            << r.status.message;
    }
    for (double omega : {0.0, 1.0}) {
        SCOPED_TRACE(omega);
        CompilerOptions opts = smtOptions(MapperKind::RSmtStar);
        opts.readoutWeight = omega;
        PipelineResult r = standardPipeline(m, opts).run(b.circuit);
        EXPECT_TRUE(r.ok()) << r.status.message;
        EXPECT_TRUE(r.hasProgram);
    }
}

TEST(SmtBundle, TinyTimeoutStillProducesRunnableCode)
{
    auto m = day0Snapshot();
    Benchmark b = benchmarkByName("Fredkin");
    CompilerOptions opts = smtOptions(MapperKind::RSmtStar);
    opts.smtTimeoutMs = 1; // effectively no solver time
    CompiledProgram cp = standardPipeline(m, opts).compile(b.circuit);
    validateLayout(cp.layout, b.circuit.numQubits(), m->numQubits());
    expectScheduleWellFormed(*m, cp.schedule);
}

/**
 * A budget of 0 ms is a budget, not "no limit": z3 reads a 0 ms
 * timeout as no timer, so every check still gets at least 1 ms. On
 * this program (grid:8x8, day 0) the solve then takes about 5 s,
 * nearly all of it building and loading the model; with an unlimited
 * check it took about 55 s (one core of a shared x86-64 host).
 */
TEST(SmtBundle, ZeroTimeoutStaysBounded)
{
    GridTopology topo(8, 8);
    CalibrationModel model(topo, test::kSeed);
    auto m = std::make_shared<const Machine>(topo, model.forDay(0));
    Circuit prog = makeRandomCircuit({16, 64, 2, true});
    CompilerOptions opts = smtOptions(MapperKind::RSmtStar);
    opts.smtTimeoutMs = 0;
    const auto t0 = std::chrono::steady_clock::now();
    PipelineResult r = standardPipeline(m, opts).run(prog);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    EXPECT_LT(seconds, 30.0) << r.status.message;
}

TEST(SmtBundle, RejectsOversizedProgram)
{
    GridTopology topo(2, 2);
    CalibrationModel model(topo, 3);
    auto m = std::make_shared<const Machine>(topo, model.forDay(0));
    Benchmark b = benchmarkByName("BV6");
    EXPECT_THROW(standardPipeline(m, CompilerOptions{}).compile(b.circuit),
                 FatalError);
}

TEST(SmtBundle, NonJointSchedulingMatchesJointObjective)
{
    // Placement-only mode must reach the same Eq. 12 optimum; only
    // start times are realized differently.
    auto m = day0Snapshot();
    Benchmark b = benchmarkByName("HS4");

    CompilerOptions joint = smtOptions(MapperKind::RSmtStar);
    CompiledProgram a = standardPipeline(m, joint).compile(b.circuit);

    CompilerOptions flat = joint;
    flat.jointScheduling = false;
    CompiledProgram c = standardPipeline(m, flat).compile(b.circuit);

    double obj_a =
        evaluateReliability(b.circuit, a.layout, *m).weighted(0.5);
    double obj_c =
        evaluateReliability(b.circuit, c.layout, *m).weighted(0.5);
    EXPECT_NEAR(obj_a, obj_c, 1e-6);
}

} // namespace
} // namespace qc
