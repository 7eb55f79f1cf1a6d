/**
 * @file
 * Noise-model and executor tests: ideal distributions for every
 * benchmark, noiseless success = 1, error monotonicity, channel
 * switches and determinism.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"

namespace qc {
namespace {

using test::day0;
using test::kSeed;
using test::noiselessOptions;

class IdealOutcomes : public ::testing::TestWithParam<std::string>
{
};

TEST_P(IdealOutcomes, DistributionIsNormalized)
{
    Benchmark b = benchmarkByName(GetParam());
    auto dist = idealDistribution(b.circuit);
    double total = 0.0;
    for (const auto &[key, p] : dist) {
        EXPECT_EQ(key.size(),
                  static_cast<size_t>(b.circuit.numClbits()));
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(IdealOutcomes, MatchesExpectedAnswer)
{
    Benchmark b = benchmarkByName(GetParam());
    EXPECT_EQ(idealOutcome(b.circuit), b.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, IdealOutcomes,
    ::testing::Values("BV4", "BV6", "BV8", "HS2", "HS4", "HS6", "Toffoli",
                      "Fredkin", "Or", "Peres", "QFT", "Adder"));

TEST(IdealOutcome, RejectsNonDeterministicCircuits)
{
    Circuit c("coin", 1);
    c.h(0);
    c.measure(0, 0);
    EXPECT_THROW(idealOutcome(c), FatalError);
}

TEST(IdealDistribution, RejectsMidCircuitMeasurement)
{
    Circuit c("mid", 2);
    c.measure(0, 0);
    c.cnot(0, 1);
    EXPECT_THROW(idealDistribution(c), FatalError);
}

/** A benchmark compiled with GreedyE* for executor tests. */
struct MeasuredRunHelper
{
    Benchmark bench;
    CompiledProgram compiled;
};

MeasuredRunHelper
compileForTest(const Machine &m, const std::string &name)
{
    Benchmark b = benchmarkByName(name);
    return {b, test::compileWith(std::make_shared<const Machine>(m),
                                 MapperKind::GreedyE, b.circuit)};
}

TEST(NoisyExecutor, NoiselessRunsAlwaysSucceed)
{
    Machine m = day0();
    auto run = compileForTest(m, "Toffoli");
    auto res = runNoisy(m, run.compiled.schedule,
                        run.bench.circuit.numClbits(), run.bench.expected,
                        noiselessOptions());
    EXPECT_EQ(res.successes, res.trials);
    EXPECT_DOUBLE_EQ(res.successRate, 1.0);
}

TEST(NoisyExecutor, CountsSumToTrials)
{
    Machine m = day0();
    auto run = compileForTest(m, "BV4");
    ExecutionOptions opts;
    opts.trials = 300;
    opts.seed = kSeed;
    auto res = runNoisy(m, run.compiled.schedule,
                        run.bench.circuit.numClbits(), run.bench.expected,
                        opts);
    int total = 0;
    for (const auto &[key, n] : res.counts)
        total += n;
    EXPECT_EQ(total, res.trials);
    EXPECT_NEAR(res.successRate,
                static_cast<double>(res.successes) / res.trials, 1e-12);
    EXPECT_GT(res.halfWidth95, 0.0);
}

TEST(NoisyExecutor, DeterministicUnderSeed)
{
    Machine m = day0();
    auto run = compileForTest(m, "HS4");
    ExecutionOptions opts;
    opts.trials = 200;
    opts.seed = 77;
    auto a = runNoisy(m, run.compiled.schedule,
                      run.bench.circuit.numClbits(), run.bench.expected,
                      opts);
    auto b = runNoisy(m, run.compiled.schedule,
                      run.bench.circuit.numClbits(), run.bench.expected,
                      opts);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.counts, b.counts);

    opts.seed = 78;
    auto c = runNoisy(m, run.compiled.schedule,
                      run.bench.circuit.numClbits(), run.bench.expected,
                      opts);
    EXPECT_NE(a.counts, c.counts);
}

TEST(NoisyExecutor, ErrorScaleIsMonotone)
{
    Machine m = day0();
    auto run = compileForTest(m, "Toffoli");
    auto rate = [&](double scale) {
        ExecutionOptions opts;
        opts.trials = 800;
        opts.seed = kSeed;
        opts.noise.errorScale = scale;
        return runNoisy(m, run.compiled.schedule,
                        run.bench.circuit.numClbits(),
                        run.bench.expected, opts)
            .successRate;
    };
    double s0 = rate(0.0);
    double s1 = rate(1.0);
    double s3 = rate(3.0);
    EXPECT_DOUBLE_EQ(s0, 1.0);
    EXPECT_GT(s1, s3);
    EXPECT_GT(s0, s1);
}

TEST(NoisyExecutor, ChannelSwitchesIsolateMechanisms)
{
    Machine m = day0();
    auto run = compileForTest(m, "BV4");
    auto rate = [&](bool gates, bool readout, bool decoh) {
        ExecutionOptions opts;
        opts.trials = 600;
        opts.seed = kSeed;
        opts.noise.gateErrors = gates;
        opts.noise.readoutErrors = readout;
        opts.noise.decoherence = decoh;
        return runNoisy(m, run.compiled.schedule,
                        run.bench.circuit.numClbits(),
                        run.bench.expected, opts)
            .successRate;
    };
    EXPECT_DOUBLE_EQ(rate(false, false, false), 1.0);
    // Each mechanism alone hurts.
    EXPECT_LT(rate(true, false, false), 1.0);
    EXPECT_LT(rate(false, true, false), 1.0);
    EXPECT_LT(rate(false, false, true), 1.0);
    // All together hurt at least as much as readout alone.
    EXPECT_LE(rate(true, true, true), rate(false, true, false) + 0.05);
}

TEST(NoiseChannels, ReadoutFlip)
{
    NoiseOptions off;
    off.readoutErrors = false;
    NoiseChannels silent(off);
    Rng rng(5);
    EXPECT_EQ(silent.readoutFlip(1, 1.0, rng), 1);

    NoiseChannels noisy({});
    int flips = 0;
    for (int i = 0; i < 4000; ++i)
        flips += noisy.readoutFlip(0, 0.25, rng);
    EXPECT_NEAR(flips / 4000.0, 0.25, 0.03);
}

TEST(NoiseChannels, DecoherenceGrowsWithTime)
{
    NoiseChannels noise({});
    Rng rng(11);
    auto flip_rate = [&](Timeslot t) {
        int flips = 0;
        for (int i = 0; i < 3000; ++i) {
            Statevector sv(1);
            noise.decohere(sv, 0, t, 60.0, 50.0, rng);
            if (sv.probOne(0) > 0.5)
                ++flips;
        }
        return flips / 3000.0;
    };
    double fast = flip_rate(50);
    double slow = flip_rate(2000);
    EXPECT_LT(fast, slow);
    EXPECT_LT(slow, 0.55); // saturates at 1/2
}

TEST(NoisyExecutor, RejectsWrongExpectedArity)
{
    Machine m = day0();
    auto run = compileForTest(m, "BV4");
    EXPECT_THROW(runNoisy(m, run.compiled.schedule,
                          run.bench.circuit.numClbits(), "01",
                          noiselessOptions()),
                 FatalError);
}

} // namespace
} // namespace qc
