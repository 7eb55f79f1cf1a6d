/**
 * @file
 * Ripple-carry adder workload tests: arithmetic correctness across
 * operand sweeps, interaction-graph shape, and large-circuit routing
 * integration (13-16 qubit programs on IBMQ16).
 */

#include <gtest/gtest.h>

#include "ir/program_graph.hpp"
#include "test_util.hpp"

namespace qc {
namespace {

using test::compileWith;
using test::day0Snapshot;
using test::expectScheduleWellFormed;
using test::noiselessOptions;

struct AddCase
{
    int bits;
    unsigned a;
    unsigned b;
};

class RippleAdderArithmetic : public ::testing::TestWithParam<AddCase>
{
};

TEST_P(RippleAdderArithmetic, IdealSimulationAddsCorrectly)
{
    const auto &p = GetParam();
    Benchmark bench = makeRippleCarryAdder(p.bits, p.a, p.b);
    EXPECT_EQ(idealOutcome(bench.circuit), bench.expected);

    // The b-register region of the expected string is the binary sum.
    unsigned sum = 0;
    for (int i = 0; i < p.bits; ++i)
        if (bench.expected[static_cast<size_t>(p.bits + i)] == '1')
            sum |= 1u << i;
    unsigned carry_out =
        bench.expected[static_cast<size_t>(3 * p.bits)] == '1'
            ? 1u << p.bits
            : 0u;
    EXPECT_EQ(sum | carry_out, p.a + p.b);
}

std::vector<AddCase>
addCases()
{
    std::vector<AddCase> cases;
    // Exhaustive 1- and 2-bit sweeps.
    for (unsigned a = 0; a < 2; ++a)
        for (unsigned b = 0; b < 2; ++b)
            cases.push_back({1, a, b});
    for (unsigned a = 0; a < 4; ++a)
        for (unsigned b = 0; b < 4; ++b)
            cases.push_back({2, a, b});
    // Spot checks with carries rippling across all bits.
    cases.push_back({3, 7, 1});
    cases.push_back({3, 5, 3});
    cases.push_back({4, 15, 15});
    cases.push_back({4, 9, 6});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RippleAdderArithmetic, ::testing::ValuesIn(addCases()),
    [](const ::testing::TestParamInfo<AddCase> &info) {
        return "b" + std::to_string(info.param.bits) + "_a" +
               std::to_string(info.param.a) + "_p" +
               std::to_string(info.param.b);
    });

TEST(RippleAdder, InteractionGraphIsChainOfStars)
{
    Benchmark bench = makeRippleCarryAdder(3, 5, 3);
    ProgramGraph pg(bench.circuit);
    // Every edge touches a b-register qubit (the per-bit star center).
    for (const auto &e : pg.edges()) {
        bool touches_b = (e.a >= 3 && e.a < 6) || (e.b >= 3 && e.b < 6);
        EXPECT_TRUE(touches_b)
            << "edge " << e.a << "-" << e.b << " bypasses b register";
    }
    // Centers have degree <= 3 neighbors: embeddable on the grid.
    for (int q = 0; q < bench.circuit.numQubits(); ++q)
        EXPECT_LE(pg.neighbors(q).size(), 3u);
}

TEST(RippleAdder, RejectsBadSpecs)
{
    EXPECT_THROW(makeRippleCarryAdder(0, 0, 0), FatalError);
    EXPECT_THROW(makeRippleCarryAdder(2, 4, 0), FatalError);
    EXPECT_THROW(makeRippleCarryAdder(2, 0, 7), FatalError);
}

class RippleAdderRouting : public ::testing::TestWithParam<MapperKind>
{
};

TEST_P(RippleAdderRouting, FourBitAdderCompilesCorrectlyOnIbmq16)
{
    // 13 qubits, ~150 gates, 72 CNOTs: a machine-filling routing
    // stress test far beyond the paper benchmarks.
    auto m = day0Snapshot();
    Benchmark bench = makeRippleCarryAdder(4, 11, 6);

    CompiledProgram cp = compileWith(m, GetParam(), bench.circuit);
    expectScheduleWellFormed(*m, cp.schedule);

    auto ideal = runNoisy(*m, cp.schedule, bench.circuit.numClbits(),
                          bench.expected, noiselessOptions());
    EXPECT_DOUBLE_EQ(ideal.successRate, 1.0)
        << "4-bit adder mis-compiled by " << cp.mapperName;
}

INSTANTIATE_TEST_SUITE_P(
    Mappers, RippleAdderRouting,
    ::testing::Values(MapperKind::Qiskit, MapperKind::GreedyV,
                      MapperKind::GreedyE, MapperKind::GreedyETrack),
    [](const ::testing::TestParamInfo<MapperKind> &info) {
        std::string n = mapperKindName(info.param);
        for (char &c : n)
            if (c == '-' || c == '*' || c == '+')
                c = '_';
        return n;
    });

TEST(RippleAdder, FiveBitAdderFillsIbmq16)
{
    // 16 qubits on a 16-qubit machine: placement is a full
    // permutation, exercising the bundles' boundary case.
    auto m = day0Snapshot();
    Benchmark bench = makeRippleCarryAdder(5, 21, 10);
    ASSERT_EQ(bench.circuit.numQubits(), 16);

    CompiledProgram cp =
        compileWith(m, MapperKind::GreedyE, bench.circuit);
    validateLayout(cp.layout, 16, 16);

    auto ideal = runNoisy(*m, cp.schedule, bench.circuit.numClbits(),
                          bench.expected, noiselessOptions());
    EXPECT_DOUBLE_EQ(ideal.successRate, 1.0);
}

TEST(RippleAdder, SixBitAdderOnLargerMachine)
{
    // 19 qubits on a 4x5 grid: the "far NISQ" regime with the greedy
    // mapper, as the paper prescribes. Verified via one noise-free
    // statevector pass over the flattened hardware program (dense
    // Monte-Carlo trials would be wasteful at this size).
    GridTopology topo(4, 5);
    CalibrationModel model(topo, test::kSeed);
    auto m = std::make_shared<const Machine>(topo, model.forDay(0));
    Benchmark bench = makeRippleCarryAdder(6, 52, 23);

    CompiledProgram cp =
        compileWith(m, MapperKind::GreedyE, bench.circuit);

    EXPECT_EQ(idealOutcome(cp.hwCircuit(bench.circuit.numClbits())),
              bench.expected);
}

} // namespace
} // namespace qc
