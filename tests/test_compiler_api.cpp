/**
 * @file
 * Public-facade tests: NoiseAdaptiveCompiler construction, every
 * MapperKind, OpenQASM emission, and name parsing.
 */

#include <gtest/gtest.h>

#include "ir/qasm.hpp"
#include "test_util.hpp"

namespace qc {
namespace {

using test::env;
using test::kSeed;

TEST(MapperKind, NamesRoundTrip)
{
    for (MapperKind k : kAllMapperKinds)
        EXPECT_EQ(mapperKindFromName(mapperKindName(k)), k)
            << mapperKindName(k);
    EXPECT_THROW(mapperKindFromName("warp"), FatalError);
}

TEST(MapperKind, NamesAreCaseAndSeparatorInsensitive)
{
    EXPECT_EQ(mapperKindFromName("qiskit"), MapperKind::Qiskit);
    EXPECT_EQ(mapperKindFromName("RSMT*"), MapperKind::RSmtStar);
    EXPECT_EQ(mapperKindFromName("rsmt*"), MapperKind::RSmtStar);
    EXPECT_EQ(mapperKindFromName("r smt*"), MapperKind::RSmtStar);
    EXPECT_EQ(mapperKindFromName("t_smt"), MapperKind::TSmt);
    EXPECT_EQ(mapperKindFromName("T-smt*"), MapperKind::TSmtStar);
    EXPECT_EQ(mapperKindFromName("GREEDYE*"), MapperKind::GreedyE);
    EXPECT_EQ(mapperKindFromName("greedy_v*"), MapperKind::GreedyV);
    EXPECT_EQ(mapperKindFromName("greedye*+track"),
              MapperKind::GreedyETrack);
}

TEST(MapperKind, CommonAliasesAreAccepted)
{
    // No unstarred R variant exists, so "r-smt" means R-SMT*; bare
    // greedy names mean the starred heuristics.
    EXPECT_EQ(mapperKindFromName("r-smt"), MapperKind::RSmtStar);
    EXPECT_EQ(mapperKindFromName("rsmt"), MapperKind::RSmtStar);
    EXPECT_EQ(mapperKindFromName("greedye"), MapperKind::GreedyE);
    EXPECT_EQ(mapperKindFromName("greedyv"), MapperKind::GreedyV);
    EXPECT_EQ(mapperKindFromName("track"), MapperKind::GreedyETrack);
    EXPECT_EQ(mapperKindFromName("greedyetrack"),
              MapperKind::GreedyETrack);
    EXPECT_EQ(mapperKindFromName("baseline"), MapperKind::Qiskit);
    EXPECT_EQ(mapperKindFromName("sabre"), MapperKind::Sabre);
    EXPECT_EQ(mapperKindFromName("SABRE"), MapperKind::Sabre);
    EXPECT_EQ(mapperKindFromName("sabre+track"), MapperKind::Sabre);
}

TEST(MapperKind, UnknownNameErrorListsInputAndValidNames)
{
    try {
        mapperKindFromName("warp");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("warp"), std::string::npos) << msg;
        for (MapperKind k : kAllMapperKinds)
            EXPECT_NE(msg.find(mapperKindName(k)), std::string::npos)
                << "missing " << mapperKindName(k) << " in: " << msg;
    }
}

class AllMapperKinds : public ::testing::TestWithParam<MapperKind>
{
};

TEST_P(AllMapperKinds, CompilesBv4)
{
    CompilerOptions opts;
    opts.mapper = GetParam();
    opts.smtTimeoutMs = 30'000;
    NoiseAdaptiveCompiler compiler(
        GridTopology::ibmq16(),
        env().calibrationModel().forDay(0), opts);

    Benchmark b = benchmarkByName("BV4");
    CompiledProgram cp = compiler.compile(b.circuit);
    EXPECT_EQ(cp.mapperName.substr(0, 3),
              std::string(mapperKindName(GetParam())).substr(0, 3));
    validateLayout(cp.layout, b.circuit.numQubits(),
                   compiler.machine().numQubits());
    EXPECT_GT(cp.duration, 0);
    EXPECT_GT(cp.predictedSuccess, 0.0);
}

TEST_P(AllMapperKinds, QasmOutputIsExecutableAndCorrect)
{
    CompilerOptions opts;
    opts.mapper = GetParam();
    opts.smtTimeoutMs = 30'000;
    NoiseAdaptiveCompiler compiler(
        GridTopology::ibmq16(),
        env().calibrationModel().forDay(0), opts);

    Benchmark b = benchmarkByName("Toffoli");
    std::string qasm = compiler.compileToQasm(b.circuit);
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_EQ(qasm.find("swap"), std::string::npos)
        << "only hardware-native ops may be emitted";

    // The emitted hardware program still computes the right answer.
    Circuit parsed = parseQasm(qasm, "compiled");
    EXPECT_EQ(parsed.numQubits(), 16);
    EXPECT_EQ(idealOutcome(parsed), b.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllMapperKinds,
    ::testing::Values(MapperKind::Qiskit, MapperKind::TSmt,
                      MapperKind::TSmtStar, MapperKind::RSmtStar,
                      MapperKind::GreedyV, MapperKind::GreedyE),
    [](const ::testing::TestParamInfo<MapperKind> &info) {
        std::string n = mapperKindName(info.param);
        for (char &c : n)
            if (c == '-' || c == '*')
                c = '_';
        return n;
    });

TEST(NoiseAdaptiveCompiler, RejectsOversizedProgram)
{
    CompilerOptions opts;
    opts.mapper = MapperKind::GreedyE;
    GridTopology small(2, 2);
    CalibrationModel model(small, kSeed);
    NoiseAdaptiveCompiler compiler(small, model.forDay(0), opts);
    Benchmark b = benchmarkByName("BV6");
    EXPECT_THROW(compiler.compile(b.circuit), FatalError);
}

TEST(NoiseAdaptiveCompiler, WorksOnCustomTopology)
{
    CompilerOptions opts;
    opts.mapper = MapperKind::GreedyE;
    GridTopology topo(4, 4);
    CalibrationModel model(topo, kSeed);
    NoiseAdaptiveCompiler compiler(topo, model.forDay(3), opts);
    Benchmark b = benchmarkByName("Adder");
    CompiledProgram cp = compiler.compile(b.circuit);
    validateLayout(cp.layout, 4, 16);
}

TEST(ExperimentEnv, MachineForDayIsDeterministic)
{
    ExperimentEnv env(kSeed);
    Machine a = env.machineForDay(2);
    Machine b = env.machineForDay(2);
    EXPECT_EQ(a.cal().cnotError, b.cal().cnotError);
    EXPECT_EQ(a.cal().t2Us, b.cal().t2Us);
}

TEST(RunMeasured, ProducesConsistentRecord)
{
    ExperimentEnv env(kSeed);
    auto m = std::make_shared<const Machine>(env.machineForDay(0));
    CompilerOptions opts;
    opts.mapper = MapperKind::GreedyE;
    Benchmark b = benchmarkByName("HS4");
    MeasuredRun run = runMeasured(m, b, opts, 256, 5);
    EXPECT_EQ(run.benchmark, "HS4");
    EXPECT_EQ(run.mapper, "GreedyE*");
    EXPECT_EQ(run.execution.trials, 256);
    EXPECT_GE(run.execution.successRate, 0.0);
    EXPECT_LE(run.execution.successRate, 1.0);
}

} // namespace
} // namespace qc
