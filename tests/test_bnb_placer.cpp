/**
 * @file
 * Branch-and-bound placer tests, including the exhaustive-enumeration
 * cross-check: on small machines the B&B optimum must equal the
 * brute-force optimum over all injective placements.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>

#include "solver/bnb_placer.hpp"
#include "solver/objective.hpp"
#include "test_util.hpp"
#include "workloads/random_circuits.hpp"

namespace qc {
namespace {

using test::day0;
using test::kSeed;

/** Eq. 12 value of a layout using best-junction EC entries. */
double
layoutObjective(const Circuit &prog, const std::vector<HwQubit> &layout,
                const Machine &m, double w)
{
    return evaluateReliability(prog, layout, m).weighted(w);
}

/** Brute-force best objective over all injective placements. */
double
bruteForceBest(const Circuit &prog, const Machine &m, double w)
{
    std::vector<HwQubit> perm(m.numQubits());
    for (int i = 0; i < m.numQubits(); ++i)
        perm[i] = i;
    double best = -std::numeric_limits<double>::infinity();
    // Enumerate placements as permutations' prefixes.
    std::vector<HwQubit> layout(prog.numQubits());
    std::vector<bool> used(m.numQubits(), false);
    std::function<void(int)> rec = [&](int q) {
        if (q == prog.numQubits()) {
            best = std::max(best, layoutObjective(prog, layout, m, w));
            return;
        }
        for (int h = 0; h < m.numQubits(); ++h) {
            if (used[h])
                continue;
            used[h] = true;
            layout[q] = h;
            rec(q + 1);
            used[h] = false;
        }
    };
    rec(0);
    return best;
}

struct BnbCase
{
    int progQubits;
    int gates;
    std::uint64_t seed;
    double weight;
};

class BnbVsBruteForce : public ::testing::TestWithParam<BnbCase>
{
};

TEST_P(BnbVsBruteForce, MatchesExhaustiveOptimum)
{
    const auto &p = GetParam();
    GridTopology topo(2, 3);
    CalibrationModel model(topo, kSeed + p.seed);
    Machine m(topo, model.forDay(0));

    RandomCircuitSpec spec;
    spec.numQubits = p.progQubits;
    spec.numGates = p.gates;
    spec.seed = p.seed;
    Circuit prog = makeRandomCircuit(spec);

    BnbOptions opts;
    opts.readoutWeight = p.weight;
    BnbPlacer placer(m, prog, opts);
    BnbResult result = placer.solve();
    EXPECT_TRUE(result.optimal);
    validateLayout(result.layout, prog.numQubits(), m.numQubits());

    double brute = bruteForceBest(prog, m, p.weight);
    EXPECT_NEAR(result.objective, brute, 1e-9);
    EXPECT_NEAR(layoutObjective(prog, result.layout, m, p.weight),
                result.objective, 1e-9);
}

std::vector<BnbCase>
bnbCases()
{
    std::vector<BnbCase> cases;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u})
        for (double w : {0.0, 0.5, 1.0})
            cases.push_back({4, 40, seed, w});
    cases.push_back({5, 60, 9, 0.5});
    cases.push_back({6, 80, 10, 0.5});
    cases.push_back({2, 12, 11, 0.3});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, BnbVsBruteForce,
                         ::testing::ValuesIn(bnbCases()));

TEST(BnbPlacer, PaperBenchmarksGetValidOptimalLayouts)
{
    Machine m = day0();
    for (const auto &b : paperBenchmarks()) {
        BnbPlacer placer(m, b.circuit);
        BnbResult r = placer.solve();
        EXPECT_TRUE(r.optimal) << b.name;
        validateLayout(r.layout, b.circuit.numQubits(), m.numQubits());
        EXPECT_NEAR(r.objective,
                    layoutObjective(b.circuit, r.layout, m, 0.5), 1e-9)
            << b.name;
    }
}

TEST(BnbPlacer, OmegaOneMaximizesReadout)
{
    // With w = 1, the objective only scores readout locations, so the
    // chosen locations of measured qubits must be the global best set.
    Machine m = day0();
    Circuit c("ro", 2);
    c.cnot(0, 1);
    c.measure(0, 0);
    c.measure(1, 1);
    BnbOptions opts;
    opts.readoutWeight = 1.0;
    BnbPlacer placer(m, c, opts);
    BnbResult r = placer.solve();
    auto order = m.qubitsByReadoutReliability();
    double best_two = std::log(m.cal().readoutReliability(order[0])) +
                      std::log(m.cal().readoutReliability(order[1]));
    double got = std::log(m.cal().readoutReliability(r.layout[0])) +
                 std::log(m.cal().readoutReliability(r.layout[1]));
    EXPECT_NEAR(got, best_two, 1e-9);
}

TEST(BnbPlacer, NodeLimitReportsNonOptimal)
{
    Machine m = day0();
    Benchmark b = benchmarkByName("Adder");
    BnbOptions opts;
    opts.nodeLimit = 3;
    BnbPlacer placer(m, b.circuit, opts);
    BnbResult r = placer.solve();
    EXPECT_FALSE(r.optimal);
    validateLayout(r.layout, b.circuit.numQubits(), m.numQubits());
}

/**
 * The caller's budget bounds the search. On this program (grid:8x8,
 * day 0) the 2,000,000-node search R-SMT*'s warm start runs takes
 * about 30 s; a 200 ms deadline, or a token fired after 200 ms, must
 * stop it within about a second with the best layout so far, unproven.
 */
TEST(BnbPlacer, StopsAtItsDeadlineOrWhenCancelled)
{
    GridTopology topo(8, 8);
    CalibrationModel model(topo, kSeed);
    Machine m(topo, model.forDay(0));
    Circuit prog = makeRandomCircuit({16, 64, 2, true});
    using Clock = std::chrono::steady_clock;
    const auto budget = std::chrono::milliseconds(200);

    auto search = [&](BnbOptions opts, const char *what) {
        SCOPED_TRACE(what);
        opts.nodeLimit = 2'000'000;
        const auto t0 = Clock::now();
        std::thread canceller;
        if (const CancelToken *token = opts.cancel)
            canceller = std::thread([token, t0, budget] {
                std::this_thread::sleep_until(t0 + budget);
                token->requestCancel("test");
            });
        else
            opts.deadline = t0 + budget;
        BnbResult r;
        try {
            r = BnbPlacer(m, prog, opts).solve();
        } catch (...) {
            if (canceller.joinable())
                canceller.join();
            throw;
        }
        const double seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (canceller.joinable())
            canceller.join();
        EXPECT_LT(seconds, 1.2);
        EXPECT_FALSE(r.optimal);
        EXPECT_LT(r.nodesExplored, 2'000'000);
        validateLayout(r.layout, prog.numQubits(), m.numQubits());
    };
    search(BnbOptions{}, "deadline");
    CancelToken token;
    BnbOptions cancellable;
    cancellable.cancel = &token;
    search(cancellable, "token");
}

TEST(BnbPlacer, RejectsOversizedPrograms)
{
    GridTopology topo(2, 2);
    CalibrationModel model(topo, 1);
    Machine m(topo, model.forDay(0));
    RandomCircuitSpec spec;
    spec.numQubits = 5;
    spec.numGates = 10;
    Circuit prog = makeRandomCircuit(spec);
    EXPECT_THROW(BnbPlacer(m, prog), FatalError);
}

TEST(BnbPlacer, IsolatedQubitsPlaced)
{
    Machine m = day0();
    Circuit c("iso", 3);
    c.h(0);
    c.h(1);
    c.h(2);
    c.measure(0, 0);
    BnbPlacer placer(m, c);
    BnbResult r = placer.solve();
    EXPECT_TRUE(r.optimal);
    validateLayout(r.layout, 3, m.numQubits());
}

} // namespace
} // namespace qc
