/**
 * @file
 * SABRE placement-refinement tests: determinism (repeated runs and
 * 8-thread service batches), the improve-or-tie guarantee against the
 * GreedyE*+track seed on the Table 2 set, output goldens on
 * heuristic_stream-shaped programs, non-grid smoke (heavy-hex, ring,
 * edge-list), and composition with the standard list-scheduling
 * passes.
 *
 * The refinement keeps the best layout by tracking-router predicted
 * success and the seed layout is itself a candidate, so Sabre can
 * never predict worse than GreedyE*+track — the bench_ablation CI
 * gate holds those margins; here we assert the invariant itself.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/passes.hpp"
#include "mappers/greedy_mapper.hpp"
#include "mappers/sabre_mapper.hpp"
#include "service/compile_service.hpp"
#include "service/fingerprints.hpp"
#include "test_util.hpp"
#include "workloads/random_circuits.hpp"

namespace qc {
namespace {

using test::env;
using test::kSeed;
using test::opStreamHash;

std::shared_ptr<const Machine>
machineFor(const Topology &topo, int day = 0)
{
    CalibrationModel model(topo, kSeed);
    return std::make_shared<const Machine>(topo, model.forDay(day));
}

CompilerOptions
sabreOptions()
{
    CompilerOptions opts;
    opts.mapper = MapperKind::Sabre;
    return opts;
}

TEST(SabrePlacement, DeterministicAcrossRepeatedRuns)
{
    auto machine =
        std::make_shared<const Machine>(env().machineForDay(0));
    Pipeline pipe = standardPipeline(machine, sabreOptions());
    for (const char *name : {"Toffoli", "Adder", "BV8"}) {
        SCOPED_TRACE(name);
        Benchmark b = benchmarkByName(name);
        PipelineResult first = pipe.run(b.circuit);
        ASSERT_TRUE(first.ok()) << first.status.message;
        for (int rep = 0; rep < 3; ++rep) {
            PipelineResult again = pipe.run(b.circuit);
            ASSERT_TRUE(again.ok());
            EXPECT_EQ(first.program.layout, again.program.layout);
            EXPECT_EQ(first.program.predictedSuccess,
                      again.program.predictedSuccess);
            EXPECT_TRUE(first.program.schedule.identicalTo(
                again.program.schedule));
        }
    }
}

TEST(SabrePlacement, DeterministicAcrossEightServiceThreads)
{
    // The acceptance bar from the issue: identical layouts whether
    // the jobs run serially or across an 8-worker service (caching
    // off, so every job is a fresh compile).
    CalibrationModel model(GridTopology::ibmq16(), kSeed);
    std::vector<std::pair<std::string, Circuit>> programs;
    for (const char *name : {"BV8", "Toffoli", "Fredkin", "Adder"})
        programs.emplace_back(name, benchmarkByName(name).circuit);
    auto batch = [&] {
        return service::CompileService::dailyBatch(model, programs, 0,
                                                   2, sabreOptions());
    };

    service::ServiceOptions serial_opts;
    serial_opts.threads = 1;
    serial_opts.cacheCapacity = 0;
    service::CompileService serial(serial_opts);
    service::ServiceOptions par_opts;
    par_opts.threads = 8;
    par_opts.cacheCapacity = 0;
    service::CompileService parallel(par_opts);

    service::BatchResult s = serial.compileBatch(batch());
    service::BatchResult p = parallel.compileBatch(batch());
    ASSERT_EQ(s.report.failed, 0);
    ASSERT_EQ(p.report.failed, 0);
    ASSERT_EQ(s.results.size(), p.results.size());
    for (size_t i = 0; i < s.results.size(); ++i) {
        EXPECT_EQ(s.results[i].program->layout,
                  p.results[i].program->layout)
            << "job " << s.results[i].tag;
        EXPECT_EQ(s.results[i].program->predictedSuccess,
                  p.results[i].program->predictedSuccess);
    }
}

TEST(SabrePlacement, ImprovesOrTiesGreedyTrackOnTable2)
{
    auto machine =
        std::make_shared<const Machine>(env().machineForDay(0));
    CompilerOptions greedy;
    greedy.mapper = MapperKind::GreedyETrack;
    Pipeline greedy_pipe = standardPipeline(machine, greedy);
    Pipeline sabre_pipe = standardPipeline(machine, sabreOptions());

    int improved = 0;
    for (const Benchmark &b : paperBenchmarks()) {
        SCOPED_TRACE(b.name);
        PipelineResult g = greedy_pipe.run(b.circuit);
        PipelineResult s = sabre_pipe.run(b.circuit);
        ASSERT_TRUE(g.ok());
        ASSERT_TRUE(s.ok());
        EXPECT_GE(s.program.predictedSuccess,
                  g.program.predictedSuccess - 1e-12);
        if (s.program.predictedSuccess >
            g.program.predictedSuccess + 1e-12)
            ++improved;
    }
    // The refinement must actually move the needle somewhere on the
    // set, not just echo its seed everywhere.
    EXPECT_GE(improved, 1);
}

/**
 * heuristic_stream-shaped programs (bench_e2e): 16-48 qubits,
 * 256-2048 gates, universal-set and 60%-CNOT, pinned by their Sabre
 * layout (FNV-1a of the vector), predicted success (exact) and timed
 * op stream. Captured from the code just before the SWAP search was
 * reworked for speed; any change to a candidate's score, the tie set
 * or the tie-break draws shows up here.
 */
struct StreamGolden
{
    const char *topology;
    int day;
    bool denseCnot;
    int qubits;
    int gates;
    std::uint64_t seed;
    std::uint64_t layoutHash;
    double predictedSuccess;
    std::uint64_t opsHash;
};

const StreamGolden kStreamGoldens[] = {
    {"grid:8x8", 0, false, 16, 256, 11, 0x999266ff04e79673ull,
     0x1.527b79e7c3ec9p-9, 0x46de23dc917dd4c3ull},
    {"grid:8x8", 0, true, 48, 2048, 12, 0x9ee62a43b0b2c7d5ull,
     0x1.1ad30d3626f95p-650, 0xc022d562285777a9ull},
    {"grid:8x8", 0, false, 48, 2048, 13, 0x70a72b1b3f96a15aull,
     0x1.7f44cbb427f41p-148, 0xd78b4b4a6c7a4150ull},
    {"grid:8x8", 0, true, 32, 1024, 14, 0x7a82a09124db40c3ull,
     0x1.813aaf92daa7p-243, 0x8f7727e5c37b076full},
    {"grid:8x8", 1, false, 16, 256, 11, 0x862df6b7ea816cbcull,
     0x1.5779cebc183e8p-10, 0xe1ae8d421c7666a8ull},
    {"grid:8x8", 1, true, 48, 2048, 12, 0x5d77dd65462d4481ull,
     0x1.21e17c1c71d84p-705, 0x440f189a7c7c16a1ull},
    {"grid:8x8", 1, false, 48, 2048, 13, 0xbc6c3e2eec3d0109ull,
     0x1.46df56a18a7b6p-160, 0xe3b26831587fe72dull},
    {"grid:8x8", 1, true, 32, 1024, 14, 0x93fd5769798eb1a9ull,
     0x1.1da2b27e20678p-286, 0x4cd68a0db79aef31ull},
    {"heavyhex:5", 0, false, 40, 1536, 21, 0x6d094a2a1d32470dull,
     0x1.b778da1da2522p-180, 0x342bee2351f0041aull},
    {"heavyhex:5", 0, true, 24, 512, 22, 0xd203e5b7278b7a0cull,
     0x1.089800e999883p-194, 0x2157da9a67feb695ull},
    {"heavyhex:5", 0, false, 48, 768, 23, 0x9877fd5db29edd62ull,
     0x1.15745adb33e83p-82, 0x08275d23dd088a25ull},
    {"heavyhex:5", 0, true, 48, 1024, 24, 0xd70d01ec1a7afaa1ull,
     0x1.4e6c11eea94d7p-632, 0xc94bc4fee6833b48ull},
    {"ring:16", 0, false, 16, 2048, 31, 0x1850b5aace9afe35ull,
     0x1.d68dc9dc16288p-195, 0xa3f805273fd55825ull},
    {"ring:16", 0, true, 16, 1024, 32, 0x7fdd318b427a5e15ull,
     0x1.6db277e7c2c94p-415, 0xa41a3c2ae6c3e392ull},
    {"ring:16", 0, false, 16, 512, 33, 0xeb61d83e75ac2875ull,
     0x1.2d19ec7964e3p-32, 0xb2f12cd6d5ca8b6aull},
    {"ring:16", 0, true, 16, 256, 34, 0xfb5d771f90d13695ull,
     0x1.92a9c6a6088f8p-110, 0x331946784fbc19bbull},
};

TEST(SabrePlacement, StreamProgramsMatchGoldens)
{
    for (const StreamGolden &g : kStreamGoldens) {
        SCOPED_TRACE(std::string(g.topology) + " day " +
                     std::to_string(g.day) +
                     (g.denseCnot ? " dense " : " random ") +
                     std::to_string(g.qubits) + "q " +
                     std::to_string(g.gates) + "g");
        auto machine = machineFor(topologyFromSpec(g.topology), g.day);
        Circuit prog =
            g.denseCnot
                ? makeDenseCnotCircuit(g.qubits, g.gates, g.seed, 600)
                : makeRandomCircuit({g.qubits, g.gates, g.seed, true});
        PipelineResult r = standardPipeline(machine, sabreOptions())
                               .run(prog);
        ASSERT_TRUE(r.ok()) << r.status.message;
        Fingerprint layout;
        layout.mixVector(r.program.layout);
        EXPECT_EQ(layout.value(), g.layoutHash);
        EXPECT_EQ(r.program.predictedSuccess, g.predictedSuccess);
        EXPECT_EQ(opStreamHash(r.program.schedule), g.opsHash);
    }
}

/**
 * Every SWAP decision of the refinement, pinned by one digest per
 * topology: FNV-1a over the refined layout and the bit pattern of its
 * predicted success, for days 0, 1 and 3, six programs (universal and
 * 60%-CNOT, 2-48 qubits, capped at the machine's size) and five option
 * variants, six on machines of at most 20 qubits. Captured before the
 * SWAP step was decided from delta keys: any change to a score, a tie
 * set or a tie-break draw moves a layout or a prediction here. The
 * variants reach the step's separate paths: reliabilityWeight 0 leaves
 * exact ties between keys (the exact-scoring fallback), lookahead 0
 * empties the window, decay 1 weighs the window evenly, the trivial
 * seed starts far from a good layout, and reliabilityWeight 20 makes
 * the search circle on reliable edges until the stall limit
 * force-routes a gate (hundreds of times on every machine of at most
 * 20 qubits, every day; counted in an instrumented build, which also
 * found single forced routes on grid:8x8 day 1 at lookahead 0 and on
 * heavyhex:5 days 0 and 3).
 */
struct DecisionDigest
{
    const char *topology;
    std::uint64_t digest;
};

std::vector<SabreOptions>
decisionVariants(const Topology &topo)
{
    std::vector<SabreOptions> v(5);
    v[1].lookahead = 0;
    v[2].reliabilityWeight = 0.0;
    v[3].decay = 1.0;
    v[4].greedySeed = false;
    // Circling costs ~20x the SWAP steps on the 55- and 64-qubit
    // machines; the small ones reach the stall limit just as well.
    if (topo.numQubits() <= 20) {
        v.emplace_back();
        v.back().reliabilityWeight = 20.0;
    }
    return v;
}

Topology
decisionTopology(const std::string &spec)
{
    if (spec != "edges")
        return topologyFromSpec(spec);
    // Two rings of 8 and 10 qubits joined by two bridges, plus chords.
    return GraphTopology::fromEdgeList(
        "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n"
        "8 9\n9 10\n10 11\n11 12\n12 13\n13 14\n14 15\n15 16\n16 17\n"
        "17 8\n3 8\n6 13\n1 5\n10 15\n",
        "edges");
}

const DecisionDigest kDecisionDigests[] = {
    {"grid:8x8", 0x3aec4f7024c43cd7ull},
    {"grid:2x8", 0x531b74af42220fd6ull},
    {"heavyhex:3", 0x53dfa273013cdd37ull},
    {"heavyhex:5", 0xf741812536fa7fc4ull},
    {"ring:16", 0x113a16b125cf60f9ull},
    {"linear:12", 0xee30b86e9d9a4360ull},
    {"edges", 0x7f070fc1f783b66aull},
};

TEST(SabrePlacement, DecisionsMatchDigests)
{
    struct Shape
    {
        int qubits;
        int gates;
        bool dense;
    };
    const Shape shapes[] = {{2, 64, false},   {6, 128, true},
                            {16, 256, false}, {24, 512, true},
                            {48, 768, false}, {48, 1024, true}};
    for (const DecisionDigest &d : kDecisionDigests) {
        SCOPED_TRACE(d.topology);
        Topology topo = decisionTopology(d.topology);
        Fingerprint fp;
        for (int day : {0, 1, 3}) {
            Machine machine = *machineFor(topo, day);
            for (size_t s = 0; s < std::size(shapes); ++s) {
                const int q = std::min(shapes[s].qubits, topo.numQubits());
                const std::uint64_t seed = 40 + s;
                Circuit prog =
                    shapes[s].dense
                        ? makeDenseCnotCircuit(q, shapes[s].gates, seed,
                                               600)
                        : makeRandomCircuit(
                              {q, shapes[s].gates, seed, true});
                for (const SabreOptions &o : decisionVariants(topo)) {
                    SabrePlacementResult r =
                        sabrePlacementDetailed(machine, prog, o);
                    fp.mixVector(r.layout).mix(r.predictedSuccess);
                }
            }
        }
        EXPECT_EQ(fp.value(), d.digest)
            << std::hex << "digest 0x" << fp.value();
    }
}

/**
 * Near-ties at the scan's tolerance, pinned by one digest. At these
 * reliabilityWeight values some candidates tie in every term but the
 * edge term, which then separates them by about 1e-12, the scan's tie
 * tolerance, so a key and its exact score can fall on opposite sides
 * of it. Found by sweeping reliabilityWeight (3e-11 to 3e-9) against a
 * build whose key error bound was 0, which moved each of these
 * placements; the parent of the keyed SWAP step placed all of them as
 * pinned here.
 */
TEST(SabrePlacement, NearTieEdgeTermsMatchDigest)
{
    struct NearTie
    {
        const char *topology;
        int day;
        int lookahead;
        double reliabilityWeight;
    };
    const NearTie cases[] = {
        {"grid:2x8", 0, 0, 1.2127964620870331e-10},
        {"grid:2x8", 1, 20, 5.3759421671260013e-11},
        {"heavyhex:3", 0, 0, 4.9787607223126818e-11},
        {"linear:12", 1, 0, 1.2699537984264626e-10},
        {"ring:16", 1, 0, 1.0402105513575949e-10},
    };
    Fingerprint fp;
    for (const NearTie &c : cases) {
        Topology topo = topologyFromSpec(c.topology);
        Machine machine = *machineFor(topo, c.day);
        SabreOptions o;
        o.lookahead = c.lookahead;
        o.reliabilityWeight = c.reliabilityWeight;
        for (int p = 0; p < 3; ++p) {
            const int q = std::min(topo.numQubits(), 8 + 4 * p);
            const std::uint64_t seed = 70 + p;
            Circuit prog = p % 2 == 1
                               ? makeDenseCnotCircuit(q, 256, seed, 600)
                               : makeRandomCircuit({q, 256, seed, true});
            SabrePlacementResult r =
                sabrePlacementDetailed(machine, prog, o);
            fp.mixVector(r.layout).mix(r.predictedSuccess);
        }
    }
    EXPECT_EQ(fp.value(), 0xafdafbd73cf7de25ull)
        << std::hex << "digest 0x" << fp.value();
}

class SabreNonGrid : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SabreNonGrid, CompilesAndComputesCorrectAnswer)
{
    Topology topo = topologyFromSpec(GetParam());
    auto machine = machineFor(topo);
    Pipeline pipe = standardPipeline(machine, sabreOptions());
    for (const char *name : {"Toffoli", "BV6"}) {
        SCOPED_TRACE(name);
        Benchmark b = benchmarkByName(name);
        PipelineResult r = pipe.run(b.circuit);
        ASSERT_TRUE(r.ok()) << r.status.message;
        validateLayout(r.program.layout, b.circuit.numQubits(),
                       machine->numQubits());
        test::expectScheduleWellFormed(*machine, r.program.schedule);
        EXPECT_GT(r.program.predictedSuccess, 0.0);

        auto ideal = runNoisy(*machine, r.program.schedule,
                              b.circuit.numClbits(), b.expected,
                              test::noiselessOptions());
        EXPECT_DOUBLE_EQ(ideal.successRate, 1.0)
            << name << " mis-compiled on " << topo.name();
    }
}

INSTANTIATE_TEST_SUITE_P(Topologies, SabreNonGrid,
                         ::testing::Values("heavyhex:3", "ring:16",
                                           "linear:9"),
                         [](const ::testing::TestParamInfo<const char *>
                                &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == ':')
                                     c = '_';
                             return n;
                         });

TEST(SabrePlacement, ComposesWithListSchedulingPasses)
{
    // First-class PlacementPass: the refined layout drives the
    // standard precomputed-route scheduler just like any greedy
    // placement (a bundle MapperKind never shipped).
    auto machine =
        std::make_shared<const Machine>(env().machineForDay(0));
    Benchmark b = benchmarkByName("Toffoli");

    Pipeline pipe = Pipeline::forMachine(machine)
                        .placement(passes::sabrePlacement())
                        .routing(passes::routeSelection(
                            RoutingPolicy::OneBendPath,
                            RouteSelect::BestReliability))
                        .named("Sabre+1BP")
                        .build();
    PipelineResult r = pipe.run(b.circuit);
    ASSERT_TRUE(r.ok()) << r.status.message;
    EXPECT_EQ(r.program.mapperName, "Sabre+1BP");
    test::expectScheduleWellFormed(*machine, r.program.schedule);
    EXPECT_GT(r.program.predictedSuccess, 0.0);

    const auto &traces = r.program.stageTraces;
    ASSERT_EQ(traces.size(), 4u);
    EXPECT_EQ(traces[0].pass, "Sabre");
    EXPECT_NE(traces[0].note.find("round trips"), std::string::npos);
}

TEST(SabrePlacement, OversizedProgramIsInfeasibleNotThrown)
{
    GridTopology small(2, 2);
    auto machine = machineFor(small);
    PipelineResult r = standardPipeline(machine, sabreOptions())
                           .run(benchmarkByName("BV6").circuit);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.hasProgram);
    EXPECT_EQ(r.status.code, CompileStatusCode::Infeasible);
    EXPECT_EQ(r.failedStage, "placement");
}

TEST(SabrePlacement, NegativeDecayIsInfeasibleNotAnAbort)
{
    // Decay -1 zeroes the window weights' sum over an even window, and
    // decay 1e200 overflows it to infinity from the third window gate:
    // either way every SWAP score would be NaN and the search would
    // find no candidate, so the stage refuses the options instead.
    for (double decay : {-1.0, 1e200}) {
        SabreOptions bad;
        bad.decay = decay;
        PipelineResult r =
            Pipeline::forMachine(machineFor(GridTopology::ibmq16()))
                .placement(passes::sabrePlacement(bad))
                .routing(passes::liveRouting())
                .scheduling(passes::trackingScheduling())
                .build()
                .run(benchmarkByName("Adder").circuit);
        EXPECT_FALSE(r.hasProgram) << decay;
        EXPECT_EQ(r.status.code, CompileStatusCode::Infeasible) << decay;
        EXPECT_EQ(r.failedStage, "placement") << decay;
        EXPECT_NE(r.status.message.find("decay"), std::string::npos)
            << r.status.message;
    }

    Machine m = env().machineForDay(0);
    const Circuit prog = benchmarkByName("Toffoli").circuit;
    SabreOptions weight;
    weight.lookaheadWeight = std::nan("");
    EXPECT_THROW(sabrePlacementDetailed(m, prog, weight), FatalError);
    weight = SabreOptions{};
    weight.reliabilityWeight = HUGE_VAL;
    EXPECT_THROW(sabrePlacementDetailed(m, prog, weight), FatalError);
    // Finite but too large: the window fold (decay 1e308 over two
    // gates) or the lookahead term would overflow a score.
    weight = SabreOptions{};
    weight.decay = 1e308;
    weight.lookahead = 2;
    EXPECT_THROW(sabrePlacementDetailed(m, prog, weight), FatalError);
    weight = SabreOptions{};
    weight.lookaheadWeight = -1e308;
    EXPECT_THROW(sabrePlacementDetailed(m, prog, weight), FatalError);
}

TEST(SabrePlacement, KnobsChangeTheFingerprintedConfiguration)
{
    // Zero iterations degenerates to the greedy seed; the knobs are
    // part of the compile-cache key so the two configurations may
    // never alias (service/fingerprints.cpp mixes them).
    Machine m = env().machineForDay(0);
    Benchmark b = benchmarkByName("Toffoli");

    SabreOptions none;
    none.iterations = 0;
    EXPECT_EQ(sabrePlacement(m, b.circuit, none),
              greedyEdgePlacement(m, b.circuit));

    CompilerOptions a = sabreOptions();
    CompilerOptions b_opts = sabreOptions();
    b_opts.sabreIterations = 0;
    EXPECT_NE(service::fingerprintOptions(a),
              service::fingerprintOptions(b_opts));
    b_opts = sabreOptions();
    b_opts.sabreLookahead = 5;
    EXPECT_NE(service::fingerprintOptions(a),
              service::fingerprintOptions(b_opts));
}

} // namespace
} // namespace qc
