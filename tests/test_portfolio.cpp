/**
 * @file
 * Portfolio-racing tests: bundle-list parsing, the success upper
 * bound, deterministic winner selection (serial vs 8-thread
 * bit-identity), provable early cancellation, fingerprint
 * non-aliasing against single-bundle cache entries, service/report
 * integration, and the ThreadPool nested-submission deadlock guard —
 * the executor regression test wedges forever under a naive
 * submit-and-wait design.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "core/portfolio.hpp"
#include "service/compile_service.hpp"
#include "service/fingerprints.hpp"
#include "service/portfolio_executor.hpp"
#include "tests/test_util.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_circuits.hpp"

namespace {

using namespace qc;
using qc::service::CompileService;
using qc::service::PoolPortfolioExecutor;
using qc::service::ServiceOptions;
using qc::service::ThreadPool;

/** Cheap heuristic bundles (no SMT): fast enough to race in tests. */
const std::vector<MapperKind> kHeuristics = {
    MapperKind::Qiskit, MapperKind::GreedyV, MapperKind::GreedyE,
    MapperKind::GreedyETrack, MapperKind::Sabre};

CompilerOptions
portfolioOptions(std::vector<MapperKind> bundles,
                 unsigned deadline_ms = 10'000)
{
    CompilerOptions options;
    options.portfolio.enabled = true;
    options.portfolio.bundles = std::move(bundles);
    options.portfolio.deadlineMs = deadline_ms;
    return options;
}

/** A double's bit pattern, for exact comparisons. */
std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

// ---------------------------------------------------------------- //
// Bundle-list parsing
// ---------------------------------------------------------------- //

TEST(PortfolioParse, LenientNamesAndOrderPreserved)
{
    auto bundles = parsePortfolioBundles("greedye, sabre ,rsmt*");
    ASSERT_EQ(bundles.size(), 3u);
    EXPECT_EQ(bundles[0], MapperKind::GreedyE);
    EXPECT_EQ(bundles[1], MapperKind::Sabre);
    EXPECT_EQ(bundles[2], MapperKind::RSmtStar);
}

TEST(PortfolioParse, RejectsBadInput)
{
    EXPECT_THROW(parsePortfolioBundles("nope"), FatalError);
    EXPECT_THROW(parsePortfolioBundles("sabre,sabre"), FatalError);
    EXPECT_THROW(parsePortfolioBundles(""), FatalError);
    EXPECT_THROW(parsePortfolioBundles("sabre,,greedye"), FatalError);
}

TEST(PortfolioParse, EmptyOptionListMeansEveryBundle)
{
    PortfolioOptions defaults;
    auto all = resolvedPortfolioBundles(defaults);
    ASSERT_EQ(all.size(), std::size(kAllMapperKinds));
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], kAllMapperKinds[i]);
}

TEST(PortfolioLaunch, HeuristicsBeforeSmtStably)
{
    const std::vector<MapperKind> bundles = {
        MapperKind::TSmt, MapperKind::GreedyE, MapperKind::RSmtStar,
        MapperKind::Sabre};
    auto order = PortfolioPass::launchOrder(bundles);
    ASSERT_EQ(order.size(), 4u);
    // GreedyE (1) and Sabre (3) first in their original order, then
    // RSmtStar (2), whose optimum can cancel the duration solvers,
    // then TSmt (0).
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 3u);
    EXPECT_EQ(order[2], 2u);
    EXPECT_EQ(order[3], 0u);
}

TEST(PortfolioLaunch, TieRankPutsRsmtAheadOfTheDurationSolvers)
{
    // Default order: R-SMT* (3) moves ahead of T-SMT (1) and T-SMT*
    // (2); everything else keeps its bundle position.
    const std::vector<size_t> all = PortfolioPass::tieRank(
        {std::begin(kAllMapperKinds), std::end(kAllMapperKinds)});
    EXPECT_EQ(all, (std::vector<size_t>{0, 2, 3, 1, 4, 5, 6, 7}));

    // R-SMT* goes just ahead of the first duration solver before it,
    // passing the bundles in between; one listed earlier stays put.
    EXPECT_EQ(PortfolioPass::tieRank({MapperKind::TSmt, MapperKind::GreedyE,
                                      MapperKind::RSmtStar,
                                      MapperKind::TSmtStar}),
              (std::vector<size_t>{1, 2, 0, 3}));
    EXPECT_EQ(PortfolioPass::tieRank({MapperKind::RSmtStar,
                                      MapperKind::GreedyE,
                                      MapperKind::TSmt}),
              (std::vector<size_t>{0, 1, 2}));
}

// ---------------------------------------------------------------- //
// Success upper bound
// ---------------------------------------------------------------- //

TEST(PortfolioBound, NoCandidatePredictionExceedsIt)
{
    auto machine = std::make_shared<const Machine>(test::day0());
    Circuit prog = makeRandomCircuit({5, 48, test::kSeed, true});
    const double ub = circuitSuccessUpperBound(*machine, prog);
    EXPECT_GT(ub, 0.0);
    EXPECT_LE(ub, 1.0);

    for (MapperKind kind : kHeuristics) {
        CompilerOptions options;
        options.mapper = kind;
        PipelineResult r =
            standardPipeline(machine, options).run(prog);
        ASSERT_TRUE(r.hasProgram) << mapperKindName(kind);
        EXPECT_LE(r.program.predictedSuccess, ub)
            << mapperKindName(kind);
    }
}

TEST(PortfolioBound, ExactOnBestCaseCircuit)
{
    // One CNOT placed on the (uniform) best edge, two readouts at the
    // (uniform) best reliability, zero SWAPs: a real compilation
    // achieves the bound exactly, float for float — the foundation of
    // the equality-form early cancellation.
    GridTopology topo(2, 4);
    auto machine = std::make_shared<const Machine>(
        topo, test::uniformCalibration(topo));
    Circuit prog("bell", 2);
    prog.cnot(0, 1);
    prog.measure(0, 0);
    prog.measure(1, 1);

    const double ub = circuitSuccessUpperBound(*machine, prog);
    CompilerOptions options;
    options.mapper = MapperKind::GreedyE;
    PipelineResult r = standardPipeline(machine, options).run(prog);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.program.predictedSuccess, ub);
}

// ---------------------------------------------------------------- //
// One-bend-path bound
// ---------------------------------------------------------------- //

/**
 * The oracle: f (R-SMT*'s prediction formula, the program-order log
 * sum) maximized by trying every injective layout.
 */
double
bruteForceOneBendBound(const Machine &machine, const Circuit &prog)
{
    const int n_prog = prog.numQubits();
    std::vector<HwQubit> layout(n_prog, kInvalidQubit);
    std::vector<bool> used(machine.numQubits(), false);
    double best = -std::numeric_limits<double>::infinity();
    std::function<void(int)> place = [&](int q) {
        if (q == n_prog) {
            double log_f = 0.0;
            for (const Gate &g : prog.gates()) {
                if (g.op == Op::CNOT)
                    log_f += std::log(
                        machine
                            .bestReliabilityPath(layout[g.q0],
                                                 layout[g.q1])
                            .reliability);
                else if (g.isMeasure())
                    log_f += std::log(
                        machine.cal().readoutReliability(layout[g.q0]));
            }
            best = std::max(best, log_f);
            return;
        }
        for (HwQubit h = 0; h < machine.numQubits(); ++h) {
            if (used[h])
                continue;
            used[h] = true;
            layout[q] = h;
            place(q + 1);
            used[h] = false;
        }
    };
    place(0);
    return std::exp(best);
}

/**
 * U equals the brute-force maximum bit for bit, and no prediction of
 * a bundle routed on one-bend paths exceeds it.
 */
void
expectOneBendBoundHolds(const std::shared_ptr<const Machine> &machine,
                        const Circuit &prog, const std::string &label)
{
    const double bound = oneBendPathSuccessBound(*machine, prog);
    EXPECT_EQ(bitsOf(bound),
              bitsOf(bruteForceOneBendBound(*machine, prog)))
        << label;
    EXPECT_LE(bound, circuitSuccessUpperBound(*machine, prog)) << label;

    // The four bundles as raced, plus T-SMT* under rectangle
    // reservation and R-SMT* at another readout weight.
    std::vector<CompilerOptions> variants;
    for (MapperKind kind : {MapperKind::Qiskit, MapperKind::TSmt,
                            MapperKind::TSmtStar, MapperKind::RSmtStar}) {
        variants.emplace_back();
        variants.back().mapper = kind;
    }
    variants.push_back(variants[2]);
    variants.back().policy = RoutingPolicy::RectangleReservation;
    variants.push_back(variants[3]);
    variants.back().readoutWeight = 0.25;
    for (CompilerOptions &options : variants) {
        options.smtTimeoutMs = 5'000;
        const std::string name = label + " " +
                                 mapperKindName(options.mapper) + " " +
                                 routingPolicyName(options.policy) +
                                 " w=" +
                                 std::to_string(options.readoutWeight);
        PipelineResult r = standardPipeline(machine, options).run(prog);
        ASSERT_TRUE(r.hasProgram) << name;
        EXPECT_LE(r.program.predictedSuccess, bound) << name;
    }
}

TEST(OneBendPathBound, MatchesBruteForceAndBoundsOneBendBundles)
{
    if (test::kThreadSanitizer)
        GTEST_SKIP() << "runs timed Z3 checks to completion";
    // Every topology family, two calibration days, random circuits of
    // up to five qubits; the largest has more than 12 CNOTs, so
    // R-SMT* takes its placement-only escape there.
    const std::vector<Topology> topologies = {
        GridTopology(2, 3), HeavyHexTopology(2), RingTopology(6),
        LinearTopology(5),
        GraphTopology::fromEdgeList("0 1\n1 2\n2 3\n3 0\n1 4\n4 5\n",
                                    "kite6")};
    const RandomCircuitSpec specs[] = {
        {3, 10, test::kSeed + 300, true},
        {4, 14, test::kSeed + 301, true},
        {5, 30, test::kSeed + 302, true},
    };
    for (const Topology &topo : topologies) {
        CalibrationModel model(topo, test::kSeed);
        for (int day : {0, 3}) {
            auto machine =
                std::make_shared<const Machine>(topo, model.forDay(day));
            for (const RandomCircuitSpec &spec : specs)
                expectOneBendBoundHolds(
                    machine, makeRandomCircuit(spec),
                    topo.name() + " day " + std::to_string(day) + " " +
                        std::to_string(spec.numQubits) + "q");
        }
    }
}

TEST(OneBendPathBound, FallsBackToTheGlobalBound)
{
    // Past its node cap (24 qubits on an 8x8 grid), and for a program
    // the machine cannot hold, U is circuitSuccessUpperBound.
    GridTopology grid(8, 8);
    const Machine large(grid, CalibrationModel(grid, test::kSeed).forDay(0));
    const Circuit wide = makeRandomCircuit({24, 96, test::kSeed, true});
    EXPECT_EQ(oneBendPathSuccessBound(large, wide),
              circuitSuccessUpperBound(large, wide));

    const Machine small = test::day0();
    const Circuit too_wide = makeRandomCircuit({20, 40, test::kSeed, true});
    EXPECT_EQ(oneBendPathSuccessBound(small, too_wide),
              circuitSuccessUpperBound(small, too_wide));
}

TEST(OneBendPathBound, SitsAboveRsmtOnHeavyHexToffoli)
{
    if (test::kThreadSanitizer)
        GTEST_SKIP() << "runs timed Z3 checks to completion";
    // f's maximum is 1-2 ulp above what R-SMT* predicts here: a bound
    // read off R-SMT*'s (or BnbPlacer's) layout would be unsound.
    HeavyHexTopology topo(3);
    auto machine = std::make_shared<const Machine>(
        topo, CalibrationModel(topo, test::kSeed).forDay(0));
    const Circuit prog = makeToffoli().circuit;
    expectOneBendBoundHolds(machine, prog, "heavyhex3 Toffoli");

    const double rsmt =
        test::compileWith(machine, MapperKind::RSmtStar, prog)
            .predictedSuccess;
    EXPECT_GT(oneBendPathSuccessBound(*machine, prog), rsmt);
}

// ---------------------------------------------------------------- //
// Racing: determinism and early cancellation
// ---------------------------------------------------------------- //

TEST(PortfolioRace, SerialWinnerTiesOrBeatsEverySingleBundle)
{
    auto machine = std::make_shared<const Machine>(test::day0());
    Circuit prog = makeRandomCircuit({5, 64, test::kSeed + 7, true});

    PortfolioPass pass(machine, portfolioOptions(kHeuristics));
    PortfolioResult raced = pass.run(prog);
    ASSERT_TRUE(raced.ok());
    ASSERT_GE(raced.winnerIndex, 0);

    for (MapperKind kind : kHeuristics) {
        CompilerOptions options;
        options.mapper = kind;
        PipelineResult solo =
            standardPipeline(machine, options).run(prog);
        if (!solo.ok() || !solo.program.solverOptimal)
            continue;
        EXPECT_GE(raced.best.program.predictedSuccess,
                  solo.program.predictedSuccess)
            << "portfolio lost to " << mapperKindName(kind);
    }
}

TEST(PortfolioRace, BitIdenticalSerialVsEightThreads)
{
    auto machine = std::make_shared<const Machine>(test::day0());
    ThreadPool pool(8);
    PoolPortfolioExecutor pooled(pool);

    for (int c = 0; c < 3; ++c) {
        Circuit prog =
            makeRandomCircuit({4 + c, 40 + 8 * c,
                               test::kSeed + 100 + c, true});
        PortfolioPass pass(machine, portfolioOptions(kHeuristics));

        PortfolioResult serial = pass.run(prog);          // oracle
        PortfolioResult threaded = pass.run(prog, &pooled);

        ASSERT_TRUE(serial.ok());
        ASSERT_TRUE(threaded.ok());
        EXPECT_EQ(serial.winnerIndex, threaded.winnerIndex);
        EXPECT_EQ(serial.best.program.mapperName,
                  threaded.best.program.mapperName);
        EXPECT_EQ(serial.best.program.predictedSuccess,
                  threaded.best.program.predictedSuccess);
        EXPECT_EQ(serial.best.program.duration,
                  threaded.best.program.duration);
        EXPECT_EQ(serial.best.program.swapCount,
                  threaded.best.program.swapCount);
        EXPECT_EQ(serial.best.program.layout,
                  threaded.best.program.layout);

        // A candidate that ran in both modes must agree bit for bit
        // (timing may skip candidates, never change their output).
        ASSERT_EQ(serial.candidates.size(),
                  threaded.candidates.size());
        for (size_t i = 0; i < serial.candidates.size(); ++i) {
            const PortfolioCandidate &a = serial.candidates[i];
            const PortfolioCandidate &b = threaded.candidates[i];
            if (a.cancelled || b.cancelled)
                continue;
            EXPECT_EQ(a.predictedSuccess, b.predictedSuccess)
                << a.name;
            EXPECT_EQ(a.duration, b.duration) << a.name;
        }
    }
}

TEST(PortfolioRace, ProvableWinnerCancelsUnstartedRivals)
{
    // On a uniform machine the single-CNOT program hits the success
    // upper bound exactly, so the first completed candidate provably
    // beats every rival: under the serial executor the SMT bundle
    // must be cancelled before it ever starts.
    GridTopology topo(2, 4);
    auto machine = std::make_shared<const Machine>(
        topo, test::uniformCalibration(topo));
    Circuit prog("bell", 2);
    prog.cnot(0, 1);
    prog.measure(0, 0);
    prog.measure(1, 1);

    PortfolioPass pass(
        machine, portfolioOptions(
                     {MapperKind::GreedyE, MapperKind::RSmtStar}));
    PortfolioResult raced = pass.run(prog);

    ASSERT_TRUE(raced.ok());
    EXPECT_EQ(raced.winnerIndex, 0);
    EXPECT_TRUE(raced.candidates[0].winner);
    EXPECT_EQ(raced.best.program.predictedSuccess, raced.upperBound);

    EXPECT_EQ(raced.launchedCount, 1);
    EXPECT_EQ(raced.cancelledCount, 1);
    EXPECT_TRUE(raced.candidates[1].cancelled);
    EXPECT_EQ(raced.candidates[1].status.code,
              CompileStatusCode::Cancelled);
    EXPECT_FALSE(raced.candidates[1].hasProgram);
}

TEST(PortfolioRace, CancellingTheRaceCancelsEveryCandidate)
{
    auto machine = std::make_shared<const Machine>(test::day0());
    Circuit prog = makeRandomCircuit({4, 32, test::kSeed, true});

    PortfolioPass pass(machine, portfolioOptions(kHeuristics));
    CancelToken cancel;
    cancel.requestCancel("caller gave up");
    PortfolioResult raced = pass.run(prog, nullptr, &cancel);

    EXPECT_FALSE(raced.ok());
    EXPECT_EQ(raced.winnerIndex, -1);
    EXPECT_EQ(raced.launchedCount, 0);
    EXPECT_EQ(raced.cancelledCount,
              static_cast<int>(kHeuristics.size()));
    EXPECT_EQ(raced.best.status.code, CompileStatusCode::Cancelled);
}

// ---------------------------------------------------------------- //
// Table 2 races on the paper's machine
// ---------------------------------------------------------------- //

/**
 * Every Table 2 kernel raced over all eight bundles on the seed-
 * 20190131 2x8 grid, day 0, under the serial executor (the default
 * 10 s SMT deadline). Run once and shared by the tests below.
 */
const std::vector<PortfolioResult> &
table2Grid2x8Day0Races()
{
    static const std::vector<PortfolioResult> races = [] {
        PortfolioPass pass(test::day0Snapshot(), portfolioOptions({}));
        std::vector<PortfolioResult> out;
        for (const Benchmark &b : paperBenchmarks())
            out.push_back(pass.run(b.circuit));
        return out;
    }();
    return races;
}

/** A race's winner, its prediction by bit pattern, and its makespan. */
struct RacePin
{
    const char *kernel;
    const char *winner;
    std::uint64_t psuccessBits;
    Timeslot duration;
};

// Captured from the race that waited out every SMT candidate.
const RacePin kGrid2x8Day0Pins[] = {
    {"BV4", "R-SMT*", 0x3fe9d297e84f245dull, 108},
    {"BV6", "R-SMT*", 0x3fe8263ce5ab6b7full, 108},
    {"BV8", "R-SMT*", 0x3fe611bc5d2c7451ull, 96},
    {"HS2", "R-SMT*", 0x3fed114c6cc0eedbull, 39},
    {"HS4", "R-SMT*", 0x3fe96138ed5b749dull, 39},
    {"HS6", "R-SMT*", 0x3fe5ba3d7295a456ull, 43},
    {"Toffoli", "R-SMT*", 0x3fe8624bb6916652ull, 189},
    {"Fredkin", "R-SMT*", 0x3fe792faa7b78329ull, 208},
    {"Or", "R-SMT*", 0x3fe8624bb6916652ull, 189},
    {"Peres", "R-SMT*", 0x3fe9b6c1ab9b45f8ull, 123},
    {"QFT", "R-SMT*", 0x3fec089d12e5e866ull, 69},
    {"Adder", "GreedyE*+track", 0x3fe1bb43bfa88b11ull, 245},
};

TEST(PortfolioTable2, Grid2x8Day0WinnersArePinned)
{
    if (test::kThreadSanitizer)
        GTEST_SKIP() << "a T-SMT* slowed by TSan can hit its deadline";
    const auto &races = table2Grid2x8Day0Races();
    ASSERT_EQ(races.size(), std::size(kGrid2x8Day0Pins));
    for (size_t i = 0; i < races.size(); ++i) {
        const RacePin &pin = kGrid2x8Day0Pins[i];
        const PortfolioResult &r = races[i];
        ASSERT_TRUE(r.ok()) << pin.kernel;
        const PipelineResult &best = r.best;
        EXPECT_EQ(r.candidates[r.winnerIndex].name, pin.winner)
            << pin.kernel;
        EXPECT_EQ(bitsOf(best.program.predictedSuccess),
                  pin.psuccessBits)
            << pin.kernel;
        EXPECT_EQ(best.program.duration, pin.duration) << pin.kernel;
    }
}

TEST(PortfolioTable2, EightThreadRacesPickTheSameWinners)
{
    // Pooled, cancellations land mid-solve and in any order; the
    // winners must still match the serial races bit for bit.
    if (test::kThreadSanitizer)
        GTEST_SKIP() << "a T-SMT* slowed by TSan can hit its deadline";
    const auto &serial = table2Grid2x8Day0Races();
    ThreadPool pool(8);
    PoolPortfolioExecutor pooled(pool);
    PortfolioPass pass(test::day0Snapshot(), portfolioOptions({}));
    const std::vector<Benchmark> kernels = paperBenchmarks();
    ASSERT_EQ(serial.size(), kernels.size());
    for (size_t i = 0; i < kernels.size(); ++i) {
        const PortfolioResult threaded =
            pass.run(kernels[i].circuit, &pooled);
        ASSERT_TRUE(threaded.ok()) << kernels[i].name;
        EXPECT_EQ(threaded.winnerIndex, serial[i].winnerIndex)
            << kernels[i].name;
        EXPECT_EQ(bitsOf(threaded.best.program.predictedSuccess),
                  bitsOf(serial[i].best.program.predictedSuccess))
            << kernels[i].name;
        EXPECT_EQ(threaded.best.program.duration,
                  serial[i].best.program.duration)
            << kernels[i].name;
        EXPECT_EQ(threaded.best.program.layout,
                  serial[i].best.program.layout)
            << kernels[i].name;
    }
}

TEST(PortfolioTable2, Grid2x8Day0SkipsWhatTheBoundsRuleOut)
{
    // Where R-SMT*'s prediction reaches the one-bend-path bound it
    // outranks T-SMT and T-SMT*; on Adder GreedyE*+track beats the
    // bound outright; on BV6 and HS6 the bound sits 1-2 ulp above
    // R-SMT*'s prediction, so everything runs.
    if (test::kThreadSanitizer)
        GTEST_SKIP() << "a T-SMT* slowed by TSan can hit its deadline";
    const std::vector<std::string> duration_smt = {"T-SMT", "T-SMT*"};
    const std::map<std::string, std::vector<std::string>> exceptions = {
        {"Adder", {"T-SMT", "T-SMT*", "R-SMT*"}},
        {"BV6", {}},
        {"HS6", {}},
    };
    const auto &races = table2Grid2x8Day0Races();
    const std::vector<Benchmark> kernels = paperBenchmarks();
    ASSERT_EQ(races.size(), kernels.size());
    for (size_t i = 0; i < races.size(); ++i) {
        const std::string &kernel = kernels[i].name;
        auto it = exceptions.find(kernel);
        const std::vector<std::string> &expected =
            it != exceptions.end() ? it->second : duration_smt;
        EXPECT_LT(races[i].oneBendBound, races[i].upperBound) << kernel;
        std::vector<std::string> skipped;
        for (const PortfolioCandidate &c : races[i].candidates) {
            const bool one_bend = c.kind == MapperKind::Qiskit ||
                                  c.kind == MapperKind::TSmt ||
                                  c.kind == MapperKind::TSmtStar ||
                                  c.kind == MapperKind::RSmtStar;
            EXPECT_EQ(c.upperBound, one_bend ? races[i].oneBendBound
                                             : races[i].upperBound)
                << kernel << " " << c.name;
            if (!c.cancelled)
                continue;
            skipped.push_back(c.name);
            EXPECT_EQ(c.failedStage, "portfolio") << kernel << " " << c.name;
        }
        EXPECT_EQ(skipped, expected) << kernel;
        EXPECT_EQ(races[i].launchedCount,
                  static_cast<int>(races[i].candidates.size() -
                                   expected.size()))
            << kernel;
    }
}

// ---------------------------------------------------------------- //
// Fingerprints: portfolio results never alias single-bundle entries
// ---------------------------------------------------------------- //

TEST(PortfolioFingerprints, KnobsSeparateCacheKeys)
{
    using qc::service::fingerprintOptions;

    CompilerOptions single;
    CompilerOptions racing = portfolioOptions({}, 10'000);
    EXPECT_NE(fingerprintOptions(single), fingerprintOptions(racing));

    CompilerOptions subset =
        portfolioOptions({MapperKind::GreedyE, MapperKind::Sabre});
    EXPECT_NE(fingerprintOptions(racing), fingerprintOptions(subset));

    CompilerOptions short_deadline = portfolioOptions({}, 500);
    EXPECT_NE(fingerprintOptions(racing),
              fingerprintOptions(short_deadline));

    // "Empty = all" and the explicit full list compile identically,
    // so they must hash identically.
    CompilerOptions explicit_all = portfolioOptions(
        {kAllMapperKinds, kAllMapperKinds + std::size(kAllMapperKinds)});
    EXPECT_EQ(fingerprintOptions(racing),
              fingerprintOptions(explicit_all));

    // Inert knobs of a DISABLED portfolio must not fragment the
    // single-bundle key space.
    CompilerOptions inert;
    inert.portfolio.deadlineMs = 123;
    inert.portfolio.bundles = {MapperKind::Sabre};
    EXPECT_EQ(fingerprintOptions(single), fingerprintOptions(inert));

    // maxWorkers is an execution knob, not a result knob.
    CompilerOptions budgeted = portfolioOptions({}, 10'000);
    budgeted.portfolio.maxWorkers = 2;
    EXPECT_EQ(fingerprintOptions(racing),
              fingerprintOptions(budgeted));

    // The tie rank decides the winner among equal predictions, so a
    // race's key carries its version: keys written under the rank
    // that put T-SMT and T-SMT* ahead of R-SMT* (pinned below) are
    // never served again. Single-bundle keys are unchanged.
    Fingerprint singles;
    for (MapperKind kind : kAllMapperKinds) {
        CompilerOptions one;
        one.mapper = kind;
        singles.mix(fingerprintOptions(one));
    }
    EXPECT_NE(fingerprintOptions(racing), 0xccf281c6b8909ec8ull);
    EXPECT_EQ(singles.value(), 0xad1e1b19c36aded7ull);
}

// ---------------------------------------------------------------- //
// Pool executor: nested-submission deadlock guard
// ---------------------------------------------------------------- //

TEST(PoolExecutor, SaturatedPoolCannotWedgeOnNestedWork)
{
    // Two portfolio parents occupy BOTH workers of a 2-thread pool,
    // then each fans out 3 child closures. A naive executor that
    // queues children and blocks on their futures deadlocks here:
    // every worker is a blocked parent and nobody is left to run a
    // child. Help-while-wait parents drain their own lists, so this
    // must finish.
    ThreadPool pool(2);
    std::atomic<int> children_ran{0};

    auto parent = [&pool, &children_ran] {
        PoolPortfolioExecutor exec(pool);
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 3; ++i)
            tasks.push_back([&children_ran] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                ++children_ran;
            });
        exec.runAll(std::move(tasks));
    };

    auto f1 = pool.submit(parent);
    auto f2 = pool.submit(parent);
    f1.get();
    f2.get();
    EXPECT_EQ(children_ran.load(), 6);
}

TEST(PoolExecutor, MaxWorkersBoundsBorrowingNotCorrectness)
{
    ThreadPool pool(4);
    PoolPortfolioExecutor exec(pool, 1); // caller-only budget
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 5; ++i)
        tasks.push_back([&ran] { ++ran; });
    exec.runAll(std::move(tasks));
    EXPECT_EQ(ran.load(), 5);
}

// ---------------------------------------------------------------- //
// Service integration
// ---------------------------------------------------------------- //

std::vector<service::CompileRequest>
portfolioRequests(const CompilerOptions &options)
{
    std::vector<std::pair<std::string, Circuit>> programs;
    for (int c = 0; c < 3; ++c)
        programs.emplace_back(
            "rand" + std::to_string(c),
            makeRandomCircuit(
                {4 + c, 36 + 6 * c, test::kSeed + 200 + c, true}));
    return CompileService::dailyBatch(test::env().calibrationModel(),
                                      programs, 0, 2, options);
}

TEST(PortfolioService, EightThreadBatchBitIdenticalToSerial)
{
    CompilerOptions options = portfolioOptions(kHeuristics);

    ServiceOptions serial_opts;
    serial_opts.threads = 1;
    CompileService serial(serial_opts);
    auto serial_batch =
        serial.compileBatch(portfolioRequests(options));

    ServiceOptions pooled_opts;
    pooled_opts.threads = 8;
    CompileService pooled(pooled_opts);
    auto pooled_batch =
        pooled.compileBatch(portfolioRequests(options));

    ASSERT_EQ(serial_batch.results.size(),
              pooled_batch.results.size());
    for (size_t i = 0; i < serial_batch.results.size(); ++i) {
        const auto &a = serial_batch.results[i];
        const auto &b = pooled_batch.results[i];
        ASSERT_TRUE(a.ok) << a.tag;
        ASSERT_TRUE(b.ok) << b.tag;
        EXPECT_EQ(a.winner, b.winner) << a.tag;
        EXPECT_EQ(a.program->predictedSuccess,
                  b.program->predictedSuccess)
            << a.tag;
        EXPECT_EQ(a.program->duration, b.program->duration) << a.tag;
        EXPECT_EQ(a.program->layout, b.program->layout) << a.tag;
    }

    // Report surface: every job raced, winners counted in
    // kAllMapperKinds order, candidate traces aggregated.
    const auto &report = pooled_batch.report;
    EXPECT_EQ(report.portfolioJobs,
              static_cast<int>(pooled_batch.results.size()));
    int wins = 0;
    for (const auto &[name, count] : report.portfolioWins)
        wins += count;
    EXPECT_EQ(wins, report.portfolioJobs);
    EXPECT_FALSE(report.stages.empty());
    EXPECT_NE(report.toString().find("portfolio:"),
              std::string::npos);
}

TEST(PortfolioService, RacedResultsAreCachedUnderPortfolioKey)
{
    CompilerOptions options = portfolioOptions(kHeuristics);
    ServiceOptions sopts;
    sopts.threads = 2;
    CompileService svc(sopts);

    auto first = svc.compileBatch(portfolioRequests(options));
    ASSERT_EQ(first.report.cacheHits, 0);

    auto second = svc.compileBatch(portfolioRequests(options));
    EXPECT_EQ(second.report.cacheHits,
              static_cast<int>(second.results.size()));

    // The same circuits compiled WITHOUT the portfolio miss the
    // portfolio entries (no aliasing between the key spaces).
    CompilerOptions single;
    single.mapper = MapperKind::GreedyE;
    auto solo = svc.compileBatch(portfolioRequests(single));
    EXPECT_EQ(solo.report.cacheHits, 0);
}

} // namespace
