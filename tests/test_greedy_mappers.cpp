/**
 * @file
 * Greedy heuristic tests (GreedyV*, GreedyE*): valid deterministic
 * layouts across all benchmarks, placement-policy behaviors (including
 * a full machine with no free coupling edge left), and the shared
 * attach helper.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ir/program_graph.hpp"
#include "mappers/greedy_mapper.hpp"
#include "test_util.hpp"
#include "verify/verifier.hpp"
#include "workloads/random_circuits.hpp"

namespace qc {
namespace {

using test::compileWith;
using test::day0;
using test::day0Snapshot;
using test::expectScheduleWellFormed;

class GreedyAllBenchmarks : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GreedyAllBenchmarks, BothHeuristicsProduceValidSchedules)
{
    auto m = day0Snapshot();
    Benchmark b = benchmarkByName(GetParam());

    for (MapperKind kind : {MapperKind::GreedyV, MapperKind::GreedyE}) {
        CompiledProgram cp = compileWith(m, kind, b.circuit);
        validateLayout(cp.layout, b.circuit.numQubits(), m->numQubits());
        expectScheduleWellFormed(*m, cp.schedule);
        EXPECT_GT(cp.predictedSuccess, 0.0);
        EXPECT_LE(cp.predictedSuccess, 1.0);
        EXPECT_EQ(cp.duration, cp.schedule.makespan);
    }
}

TEST_P(GreedyAllBenchmarks, Deterministic)
{
    Benchmark b = benchmarkByName(GetParam());
    CompilerOptions opts;
    opts.mapper = MapperKind::GreedyE;
    Pipeline pipe = standardPipeline(day0Snapshot(), opts);
    CompiledProgram a = pipe.compile(b.circuit);
    CompiledProgram c = pipe.compile(b.circuit);
    EXPECT_EQ(a.layout, c.layout);
    EXPECT_EQ(a.duration, c.duration);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, GreedyAllBenchmarks,
    ::testing::Values("BV4", "BV6", "BV8", "HS2", "HS4", "HS6", "Toffoli",
                      "Fredkin", "Or", "Peres", "QFT", "Adder"));

TEST(GreedyE, HeaviestEdgeLandsOnAdjacentPair)
{
    auto m = day0Snapshot();
    Benchmark b = benchmarkByName("HS2"); // single weight-2 edge
    CompiledProgram cp = compileWith(m, MapperKind::GreedyE, b.circuit);
    EXPECT_TRUE(m->topo().adjacent(cp.layout[0], cp.layout[1]));
    EXPECT_EQ(cp.swapCount, 0);
}

TEST(GreedyE, PicksAReliableEdgeForTheSeed)
{
    // The seed edge maximizes cnot_rel * ro_rel * ro_rel over free
    // hardware edges; it must beat the machine-wide median edge.
    Machine m = day0();
    Benchmark b = benchmarkByName("HS2");
    std::vector<HwQubit> layout = greedyEdgePlacement(m, b.circuit);
    EdgeId chosen = m.topo().edgeBetween(layout[0], layout[1]);
    ASSERT_NE(chosen, kInvalidEdge);

    double chosen_score =
        std::log(m.cal().cnotReliability(chosen)) +
        std::log(m.cal().readoutReliability(layout[0])) +
        std::log(m.cal().readoutReliability(layout[1]));
    for (const auto &e : m.topo().edges()) {
        EdgeId id = m.topo().edgeBetween(e.a, e.b);
        double score = std::log(m.cal().cnotReliability(id)) +
                       std::log(m.cal().readoutReliability(e.a)) +
                       std::log(m.cal().readoutReliability(e.b));
        EXPECT_GE(chosen_score + 1e-12, score);
    }
}

TEST(GreedyV, SeedsOnMaxDegreeLocation)
{
    Machine m = day0();
    Benchmark b = benchmarkByName("BV4");
    std::vector<HwQubit> layout = greedyVertexPlacement(m, b.circuit);
    // The heaviest program qubit is the ancilla (qubit 3); it must sit
    // on an interior (degree-3) hardware qubit.
    EXPECT_EQ(m.topo().neighbors(layout[3]).size(), 3u);
}

TEST(GreedyMappers, HandleIsolatedQubits)
{
    auto m = day0Snapshot();
    Circuit c("iso", 4);
    c.cnot(0, 1);
    c.h(2);
    c.h(3);
    for (int q = 0; q < 4; ++q)
        c.measure(q, q);
    for (MapperKind kind : {MapperKind::GreedyV, MapperKind::GreedyE})
        validateLayout(compileWith(m, kind, c).layout, 4,
                       m->numQubits());
}

TEST(GreedyMappers, HandleDisconnectedComponents)
{
    auto m = day0Snapshot();
    Circuit c("two-comp", 6);
    c.cnot(0, 1);
    c.cnot(0, 1);
    c.cnot(2, 3);
    c.cnot(4, 5);
    for (int q = 0; q < 6; ++q)
        c.measure(q, q);
    CompiledProgram cp = compileWith(m, MapperKind::GreedyE, c);
    validateLayout(cp.layout, 6, m->numQubits());
    expectScheduleWellFormed(*m, cp.schedule);
}

TEST(GreedyE, NewComponentWithoutFreeEdgeIsRoutedNotFatal)
{
    // A 64-qubit program on the 64-qubit grid: late program-edge
    // components find no two adjacent free hardware qubits, so their
    // endpoints land on free qubits apart and routing connects them.
    // Every bundle seeded by GreedyE* placement must compile it.
    Topology topo = topologyFromSpec("grid:8x8");
    CalibrationModel model(topo, test::kSeed);
    auto machine =
        std::make_shared<const Machine>(topo, model.forDay(1));
    Circuit prog = makeRandomCircuit({64, 1024, 7596, true});
    for (MapperKind kind : {MapperKind::GreedyE, MapperKind::GreedyETrack,
                            MapperKind::Sabre}) {
        SCOPED_TRACE(mapperKindName(kind));
        CompilerOptions opts;
        opts.mapper = kind;
        Pipeline pipe = standardPipeline(machine, opts);
        PipelineResult r = pipe.run(prog);
        ASSERT_TRUE(r.ok()) << r.status.message;
        validateLayout(r.program.layout, 64, machine->numQubits());
        VerifyOptions vopts;
        vopts.expectRestoredLayout = !pipe.routesLive();
        VerifyReport report =
            ProgramVerifier(*machine, vopts).verify(prog, r.program);
        EXPECT_TRUE(report.ok()) << report.toString();
    }
}

TEST(GreedyMappers, RejectOversizedPrograms)
{
    GridTopology topo(2, 2);
    CalibrationModel model(topo, 5);
    auto m = std::make_shared<const Machine>(topo, model.forDay(0));
    Benchmark b = benchmarkByName("BV6");
    EXPECT_THROW(compileWith(m, MapperKind::GreedyV, b.circuit),
                 FatalError);
    EXPECT_THROW(compileWith(m, MapperKind::GreedyE, b.circuit),
                 FatalError);
}

TEST(BestAttachedLocation, MinimizesWeightedPathCost)
{
    Machine m = day0();
    std::vector<bool> used(m.numQubits(), false);
    HwQubit anchor = m.topo().qubitAt(0, 3);
    used[anchor] = true;
    HwQubit got = bestAttachedLocation(m, {{anchor, 1}}, used);
    ASSERT_NE(got, kInvalidQubit);
    double got_cost = m.mostReliablePathCost(got, anchor);
    for (HwQubit h = 0; h < m.numQubits(); ++h) {
        if (used[h])
            continue;
        EXPECT_LE(got_cost, m.mostReliablePathCost(h, anchor) + 1e-12);
    }
}

TEST(BestAttachedLocation, ReturnsInvalidWhenFull)
{
    Machine m = day0();
    std::vector<bool> used(m.numQubits(), true);
    EXPECT_EQ(bestAttachedLocation(m, {}, used), kInvalidQubit);
}

} // namespace
} // namespace qc
