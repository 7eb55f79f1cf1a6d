/**
 * @file
 * Public-facade tests: NoiseAdaptiveCompiler construction, every
 * MapperKind, OpenQASM emission, name parsing and the options codec.
 */

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ir/qasm.hpp"
#include "service/fingerprints.hpp"
#include "support/cli.hpp"
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

// ---------------------------------------------------------------- //
// Options codec
// ---------------------------------------------------------------- //

/** One value off the CompilerOptions default for every codec key. */
struct KeySample
{
    std::string_view key;
    const char *value;
};
constexpr KeySample kOffDefault[] = {
    {"mapper", "sabre"},
    {"omega", "0.25"},
    {"timeout", "1000"},
    {"sabre_iterations", "0"},
    {"sabre_lookahead", "5"},
    {"portfolio", "greedye,sabre"},
    {"portfolio_deadline_ms", "500"},
};

TEST(OptionsCodec, EachKeySetsItsField)
{
    CompilerOptions o;
    for (const KeySample &s : kOffDefault)
        setCompilerOption(o, s.key, s.value);
    EXPECT_EQ(o.mapper, MapperKind::Sabre);
    EXPECT_EQ(o.readoutWeight, 0.25);
    EXPECT_EQ(o.smtTimeoutMs, 1000u);
    EXPECT_EQ(o.sabreIterations, 0);
    EXPECT_EQ(o.sabreLookahead, 5);
    EXPECT_TRUE(o.portfolio.enabled);
    EXPECT_EQ(o.portfolio.bundles,
              (std::vector<MapperKind>{MapperKind::GreedyE,
                                       MapperKind::Sabre}));
    EXPECT_EQ(o.portfolio.deadlineMs, 500u);
}

TEST(OptionsCodec, PortfolioIsBareAllOrAList)
{
    // "1" is what a bare `portfolio` protocol flag reads as.
    for (const char *all : {"1", "all"}) {
        CompilerOptions o;
        o.portfolio.bundles = {MapperKind::Sabre};
        setCompilerOption(o, "portfolio", all);
        EXPECT_TRUE(o.portfolio.enabled) << all;
        EXPECT_TRUE(o.portfolio.bundles.empty()) << all;
    }
    CompilerOptions listed;
    setCompilerOption(listed, "portfolio", "rsmt*,track");
    EXPECT_EQ(listed.portfolio.bundles,
              (std::vector<MapperKind>{MapperKind::RSmtStar,
                                       MapperKind::GreedyETrack}));
    EXPECT_THROW(setCompilerOption(listed, "portfolio", "sabre,sabre"),
                 FatalError);
}

TEST(OptionsCodec, MalformedValuesAndUnknownKeysNameTheKey)
{
    auto error = [](std::string_view key, const std::string &value) {
        CompilerOptions o;
        try {
            setCompilerOption(o, key, value);
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    for (std::string_view key :
         {"omega", "timeout", "sabre_iterations", "sabre_lookahead",
          "portfolio_deadline_ms"})
        for (const char *bad : {"12x", "nan", "", " 5"})
            EXPECT_EQ(error(key, bad),
                      "bad " + std::string(key) + " '" + bad + "'");
    EXPECT_EQ(error("omega", "0.5abc"), "bad omega '0.5abc'");
    EXPECT_EQ(error("omega", "1e999"), "bad omega '1e999'");
    EXPECT_EQ(error("timeout", "4294967296"), "bad timeout '4294967296'");
    EXPECT_EQ(error("timeout", "-1"), "bad timeout '-1'");
    EXPECT_EQ(error("sabre_iterations", "2147483648"),
              "bad sabre_iterations '2147483648'");
    EXPECT_NE(error("mapper", "12x").find("unknown mapper '12x'"),
              std::string::npos);
    EXPECT_EQ(error("omgea", "0.1"), "unknown option 'omgea'");
    EXPECT_EQ(error("verify", "1"), "unknown option 'verify'");

    // Subnormal underflow (strtod sets ERANGE but returns a
    // representable value) is accepted, unlike true overflow.
    EXPECT_EQ(error("omega", "1e-310"), "no error");
    // Syntax only: range rules stay with the stages that own them.
    EXPECT_EQ(error("omega", "2"), "no error");
    EXPECT_EQ(error("sabre_iterations", "-1"), "no error");
}

TEST(OptionsCodec, EveryKeyIsPartOfTheCacheKey)
{
    // Every key steers the compiled program, so a key the fingerprint
    // does not mix would serve one request another's cached program.
    // The base races, or portfolio_deadline_ms would be inert.
    CompilerOptions base;
    setCompilerOption(base, "portfolio", "all");
    for (const CompilerOptionKey &entry : kCompilerOptionKeys) {
        const std::string_view key = entry.key;
        const KeySample *s = std::find_if(
            std::begin(kOffDefault), std::end(kOffDefault),
            [&](const KeySample &k) { return k.key == key; });
        ASSERT_NE(s, std::end(kOffDefault))
            << "no off-default sample for key " << key;
        CompilerOptions changed = base;
        setCompilerOption(changed, key, s->value);
        EXPECT_NE(service::fingerprintOptions(changed),
                  service::fingerprintOptions(base))
            << key;
    }
}

TEST(OptionsCodec, FlagsSpellKeysWithDashes)
{
    std::vector<std::string> args = {"naqc", "--sabre-iterations", "0",
                                     "--portfolio", "--portfolio=greedye",
                                     "--omega=0.25", "--trace", "--timeout"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());
    std::string key, value;

    int i = 1;
    ASSERT_TRUE(compilerOptionFlag(argc, argv.data(), i, key, value));
    EXPECT_EQ(key, "sabre_iterations");
    EXPECT_EQ(value, "0");
    EXPECT_EQ(i, 2);

    i = 3;
    ASSERT_TRUE(compilerOptionFlag(argc, argv.data(), i, key, value));
    EXPECT_EQ(key, "portfolio");
    EXPECT_EQ(value, "all");
    EXPECT_EQ(i, 3);

    i = 4;
    ASSERT_TRUE(compilerOptionFlag(argc, argv.data(), i, key, value));
    EXPECT_EQ(value, "greedye");

    i = 5;
    ASSERT_TRUE(compilerOptionFlag(argc, argv.data(), i, key, value));
    EXPECT_EQ(key, "omega");
    EXPECT_EQ(value, "0.25");

    i = 6;
    EXPECT_FALSE(compilerOptionFlag(argc, argv.data(), i, key, value));
    EXPECT_EQ(i, 6);

    i = 7;
    EXPECT_THROW(compilerOptionFlag(argc, argv.data(), i, key, value),
                 cli::UsageError);
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
