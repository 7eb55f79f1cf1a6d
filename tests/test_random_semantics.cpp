/**
 * @file
 * Distribution-equivalence property tests: for *random* programs
 * (whose outcomes are not deterministic), the compiled hardware
 * program's noise-free outcome distribution must equal the source
 * program's distribution — the strongest semantic-preservation check
 * in the suite, covering placement, SWAP routing (restore and
 * tracking), scheduling and flattening in one property.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"
#include "workloads/random_circuits.hpp"

namespace qc {
namespace {

using test::day0Snapshot;

/** Total variation distance between two outcome distributions. */
double
totalVariation(const std::map<std::string, double> &a,
               const std::map<std::string, double> &b)
{
    double tv = 0.0;
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() || ib != b.end()) {
        if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
            tv += ia->second;
            ++ia;
        } else if (ia == a.end() || ib->first < ia->first) {
            tv += ib->second;
            ++ib;
        } else {
            tv += std::abs(ia->second - ib->second);
            ++ia;
            ++ib;
        }
    }
    return 0.5 * tv;
}

struct RandomCase
{
    std::uint64_t seed;
    int qubits;
    int gates;
    MapperKind mapper;
};

class RandomSemantics : public ::testing::TestWithParam<RandomCase>
{
};

TEST_P(RandomSemantics, CompiledDistributionMatchesSource)
{
    const auto &p = GetParam();

    RandomCircuitSpec spec;
    spec.numQubits = p.qubits;
    spec.numGates = p.gates;
    spec.seed = p.seed;
    Circuit prog = makeRandomCircuit(spec);

    CompilerOptions opts;
    opts.mapper = p.mapper;
    opts.smtTimeoutMs = 20'000;
    CompiledProgram cp =
        standardPipeline(day0Snapshot(), opts).compile(prog);

    auto source = idealDistribution(prog);
    auto compiled =
        idealDistribution(cp.hwCircuit(prog.numClbits()));
    EXPECT_LT(totalVariation(source, compiled), 1e-9)
        << "mapper " << cp.mapperName << " changed the program's "
        << "outcome distribution";
}

std::vector<RandomCase>
randomCases()
{
    std::vector<RandomCase> cases;
    for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
        for (MapperKind k :
             {MapperKind::Qiskit, MapperKind::GreedyV,
              MapperKind::GreedyE, MapperKind::GreedyETrack}) {
            cases.push_back({seed, 5, 60, k});
        }
    }
    // A couple of denser / wider instances on the cheap mappers.
    cases.push_back({55, 7, 120, MapperKind::GreedyE});
    cases.push_back({66, 7, 120, MapperKind::GreedyETrack});
    cases.push_back({77, 8, 160, MapperKind::Qiskit});
    // And the SMT reliability mapper on small instances.
    cases.push_back({88, 4, 40, MapperKind::RSmtStar});
    cases.push_back({99, 4, 40, MapperKind::TSmtStar});
    return cases;
}

std::string
randomCaseName(const ::testing::TestParamInfo<RandomCase> &info)
{
    std::string n = "s" + std::to_string(info.param.seed) + "_q" +
                    std::to_string(info.param.qubits) + "_" +
                    mapperKindName(info.param.mapper);
    for (char &c : n)
        if (c == '-' || c == '*' || c == '+')
            c = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomSemantics,
                         ::testing::ValuesIn(randomCases()),
                         randomCaseName);

TEST(TotalVariation, HelperBehaves)
{
    std::map<std::string, double> a{{"00", 0.5}, {"11", 0.5}};
    std::map<std::string, double> b{{"00", 0.5}, {"11", 0.5}};
    EXPECT_NEAR(totalVariation(a, b), 0.0, 1e-15);
    std::map<std::string, double> c{{"01", 1.0}};
    EXPECT_NEAR(totalVariation(a, c), 1.0, 1e-15);
    std::map<std::string, double> d{{"00", 1.0}};
    EXPECT_NEAR(totalVariation(a, d), 0.5, 1e-15);
}

} // namespace
} // namespace qc
