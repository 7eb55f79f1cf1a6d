/**
 * @file
 * End-to-end integration and property tests: every benchmark compiled
 * by every mapper must (a) produce a well-formed schedule and
 * (b) compute the correct answer when executed noise-free — the
 * semantic-preservation property of the whole compiler. Also checks
 * the paper's headline qualitative results on one machine-day.
 */

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace qc {
namespace {

using test::day0Snapshot;
using test::env;
using test::expectScheduleWellFormed;
using test::kSeed;
using test::noiselessOptions;

struct E2eCase
{
    std::string benchmark;
    MapperKind mapper;
};

class EndToEnd : public ::testing::TestWithParam<E2eCase>
{
};

TEST_P(EndToEnd, CompiledProgramComputesCorrectAnswer)
{
    const auto &p = GetParam();
    auto m = day0Snapshot();
    Benchmark b = benchmarkByName(p.benchmark);

    CompilerOptions opts;
    opts.mapper = p.mapper;
    opts.smtTimeoutMs = 30'000;
    CompiledProgram cp = standardPipeline(m, opts).compile(b.circuit);

    validateLayout(cp.layout, b.circuit.numQubits(), m->numQubits());
    expectScheduleWellFormed(*m, cp.schedule);

    // Semantic preservation: the placed, routed, scheduled hardware
    // program returns the benchmark's answer on a noise-free machine.
    auto ideal = runNoisy(*m, cp.schedule, b.circuit.numClbits(),
                          b.expected, noiselessOptions());
    EXPECT_DOUBLE_EQ(ideal.successRate, 1.0)
        << p.benchmark << " mis-compiled by " << cp.mapperName;

    // Under real noise the success rate is a proper probability and
    // the model prediction is sane.
    ExecutionOptions noisy;
    noisy.trials = 300;
    noisy.seed = kSeed;
    auto real = runNoisy(*m, cp.schedule, b.circuit.numClbits(),
                         b.expected, noisy);
    EXPECT_GE(real.successRate, 0.0);
    EXPECT_LE(real.successRate, 1.0);
    EXPECT_GT(cp.predictedSuccess, 0.0);
    EXPECT_LE(cp.predictedSuccess, 1.0);
}

std::vector<E2eCase>
e2eCases()
{
    std::vector<E2eCase> cases;
    const std::vector<std::string> all = {
        "BV4", "BV6", "BV8", "HS2", "HS4", "HS6",
        "Toffoli", "Fredkin", "Or", "Peres", "QFT", "Adder"};
    // Heuristics + baseline: the full matrix is cheap.
    for (const auto &b : all)
        for (MapperKind k : {MapperKind::Qiskit, MapperKind::GreedyV,
                             MapperKind::GreedyE})
            cases.push_back({b, k});
    // R-SMT* across the full suite (the headline configuration).
    for (const auto &b : all)
        cases.push_back({b, MapperKind::RSmtStar});
    // Duration variants on a representative subset.
    for (const auto &b :
         {std::string("BV4"), std::string("HS4"), std::string("Toffoli"),
          std::string("QFT")}) {
        cases.push_back({b, MapperKind::TSmt});
        cases.push_back({b, MapperKind::TSmtStar});
    }
    return cases;
}

std::string
e2eName(const ::testing::TestParamInfo<E2eCase> &info)
{
    std::string n = info.param.benchmark + "_" +
                    mapperKindName(info.param.mapper);
    for (char &c : n)
        if (c == '-' || c == '*')
            c = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(Matrix, EndToEnd,
                         ::testing::ValuesIn(e2eCases()), e2eName);

TEST(PaperHeadlines, RSmtStarBeatsQiskitOnSuccessRate)
{
    // The paper's headline: noise-adaptive optimal mapping wins by a
    // large factor on real runs (geomean 2.9x). One day, three
    // benchmarks with movement-heavy baselines.
    auto m = day0Snapshot();
    double ratio_product = 1.0;
    int n = 0;
    for (const char *name : {"BV4", "BV8", "HS6"}) {
        Benchmark b = benchmarkByName(name);
        CompilerOptions rsmt;
        rsmt.mapper = MapperKind::RSmtStar;
        rsmt.smtTimeoutMs = 30'000;
        CompilerOptions qiskit;
        qiskit.mapper = MapperKind::Qiskit;
        auto a = runMeasured(m, b, rsmt, 1200, kSeed);
        auto c = runMeasured(m, b, qiskit, 1200, kSeed);
        EXPECT_GT(a.execution.successRate,
                  c.execution.successRate)
            << name;
        ratio_product *= a.execution.successRate /
                         std::max(c.execution.successRate, 1e-3);
        ++n;
    }
    double geomean_gain = std::pow(ratio_product, 1.0 / n);
    EXPECT_GT(geomean_gain, 1.2);
}

TEST(PaperHeadlines, DailyRecompilationAdaptsLayouts)
{
    // Sec. 7 "Resilience to Daily Variations": R-SMT* re-places
    // qubits as error rates drift. Across a week of calibrations the
    // layout must change at least once (T-SMT*'s static inputs rarely
    // do).
    Benchmark b = benchmarkByName("BV4");
    CompilerOptions opts;
    opts.mapper = MapperKind::RSmtStar;
    opts.smtTimeoutMs = 30'000;

    std::vector<std::vector<HwQubit>> layouts;
    for (int day = 0; day < 5; ++day) {
        auto m = std::make_shared<const Machine>(env().machineForDay(day));
        layouts.push_back(standardPipeline(m, opts).compile(b.circuit).layout);
    }
    bool changed = false;
    for (size_t i = 1; i < layouts.size(); ++i)
        changed = changed || layouts[i] != layouts[0];
    EXPECT_TRUE(changed);
}

TEST(PaperHeadlines, ZeroMovementBenchmarksBeatMovementOnes)
{
    // Sec. 7: benchmarks mappable without SWAPs (BV, HS, QFT, Adder)
    // succeed more often than the triangle kernels under the same
    // compiler.
    auto m = day0Snapshot();
    CompilerOptions opts;
    opts.mapper = MapperKind::RSmtStar;
    opts.smtTimeoutMs = 30'000;
    auto rate = [&](const char *name) {
        return runMeasured(m, benchmarkByName(name), opts, 1200, kSeed)
            .execution.successRate;
    };
    double bv4 = rate("BV4");
    double hs2 = rate("HS2");
    double toffoli = rate("Toffoli");
    double fredkin = rate("Fredkin");
    EXPECT_GT(bv4, toffoli);
    EXPECT_GT(hs2, fredkin);
}

} // namespace
} // namespace qc
