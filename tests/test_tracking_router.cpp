/**
 * @file
 * Live-tracking router tests: semantic preservation without restore
 * SWAPs, layout evolution, SWAP savings vs the restore scheme, and
 * the GreedyE*+track bundle.
 */

#include <gtest/gtest.h>

#include "mappers/greedy_mapper.hpp"
#include "sched/tracking_router.hpp"
#include "test_util.hpp"

namespace qc {
namespace {

using test::day0;
using test::expectScheduleWellFormed;
using test::noiselessOptions;

class TrackingAllBenchmarks
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TrackingAllBenchmarks, PreservesSemantics)
{
    Machine m = day0();
    Benchmark b = benchmarkByName(GetParam());
    std::vector<HwQubit> layout = greedyEdgePlacement(m, b.circuit);

    TrackingRouter router(m);
    TrackingResult r = router.run(b.circuit, layout);
    expectScheduleWellFormed(m, r.schedule);

    auto ideal = runNoisy(m, r.schedule, b.circuit.numClbits(),
                          b.expected, noiselessOptions());
    EXPECT_DOUBLE_EQ(ideal.successRate, 1.0)
        << GetParam() << " mis-routed by the tracking router";
}

TEST_P(TrackingAllBenchmarks, FinalLayoutIsValidPermutation)
{
    Machine m = day0();
    Benchmark b = benchmarkByName(GetParam());
    TrackingRouter router(m);
    TrackingResult r =
        router.run(b.circuit, greedyEdgePlacement(m, b.circuit));
    validateLayout(r.finalLayout, b.circuit.numQubits(),
                   m.numQubits());
}

INSTANTIATE_TEST_SUITE_P(
    Paper, TrackingAllBenchmarks,
    ::testing::Values("BV4", "BV6", "BV8", "HS2", "HS4", "HS6", "Toffoli",
                      "Fredkin", "Or", "Peres", "QFT", "Adder"));

TEST(TrackingRouter, NoSwapsWhenAdjacent)
{
    Machine m = day0();
    Circuit c("pair", 2);
    c.h(0);
    c.cnot(0, 1);
    c.measure(1, 1);
    TrackingRouter router(m);
    TrackingResult r = router.run(c, {0, 1});
    EXPECT_EQ(r.swapCount, 0);
    EXPECT_EQ(r.finalLayout, (std::vector<HwQubit>{0, 1}));
}

TEST(TrackingRouter, OneWaySwapChainMovesTheControl)
{
    Machine m = day0();
    Circuit c("far", 2);
    c.cnot(0, 1);
    TrackingRouter router(m);
    HwQubit a = m.topo().qubitAt(0, 0);
    HwQubit b = m.topo().qubitAt(0, 3);
    TrackingResult r = router.run(c, {a, b});
    // Forward-only: hops-1 swaps, no restore (the Dijkstra path may
    // legitimately be longer than the grid distance).
    EXPECT_GE(r.swapCount, m.topo().distance(a, b) - 1);
    EXPECT_EQ(r.schedule.swapCount(), r.swapCount);
    // The control drifted next to the target.
    EXPECT_TRUE(m.topo().adjacent(r.finalLayout[0], r.finalLayout[1]));
    EXPECT_EQ(r.finalLayout[1], b); // target never moves
}

TEST(TrackingRouter, UsesFewerSwapsThanRestoreRouting)
{
    Machine m = day0();
    Benchmark b = benchmarkByName("Toffoli");
    std::vector<HwQubit> layout = greedyEdgePlacement(m, b.circuit);

    TrackingRouter tracker(m);
    TrackingResult tracked = tracker.run(b.circuit, layout);

    SchedulerOptions restore_opts;
    restore_opts.select = RouteSelect::Dijkstra;
    ListScheduler restorer(m, restore_opts);
    Schedule restored = restorer.run(b.circuit, layout);

    EXPECT_LE(tracked.swapCount, restored.swapCount());
}

TEST(TrackingRouter, MeasuresFollowTheLiveLayout)
{
    // After a routed CNOT drifts the control, its later measurement
    // must read the drifted location, not the original one.
    Machine m = day0();
    Circuit c("drift", 2);
    c.x(0);
    c.cnot(0, 1);
    c.measure(0, 0);
    c.measure(1, 1);
    HwQubit a = m.topo().qubitAt(0, 0);
    HwQubit b = m.topo().qubitAt(0, 4);
    TrackingRouter router(m);
    TrackingResult r = router.run(c, {a, b});

    auto ideal = runNoisy(m, r.schedule, 2, "11", noiselessOptions());
    EXPECT_DOUBLE_EQ(ideal.successRate, 1.0);
}

TEST(TrackingRouter, OneBendPathOption)
{
    Machine m = day0();
    Benchmark b = benchmarkByName("Fredkin");
    TrackingOptions opts;
    opts.dijkstraPaths = false;
    TrackingRouter router(m, opts);
    TrackingResult r =
        router.run(b.circuit, greedyEdgePlacement(m, b.circuit));
    auto ideal = runNoisy(m, r.schedule, b.circuit.numClbits(),
                          b.expected, noiselessOptions());
    EXPECT_DOUBLE_EQ(ideal.successRate, 1.0);
}

TEST(TrackingRouter, RejectsProgramSwapAndBadLayout)
{
    Machine m = day0();
    Circuit c("bad", 2);
    c.swap(0, 1);
    TrackingRouter router(m);
    EXPECT_THROW(router.run(c, {0, 1}), FatalError);
    Circuit ok("ok", 2);
    ok.h(0);
    EXPECT_THROW(router.run(ok, {0, 0}), FatalError);
}

TEST(GreedyETrackBundle, CompilesAndPredicts)
{
    auto m = test::day0Snapshot();
    Benchmark b = benchmarkByName("Fredkin");
    CompiledProgram cp =
        test::compileWith(m, MapperKind::GreedyETrack, b.circuit);
    EXPECT_EQ(cp.mapperName, "GreedyE*+track");
    EXPECT_GT(cp.predictedSuccess, 0.0);
    EXPECT_LE(cp.predictedSuccess, 1.0);
    expectScheduleWellFormed(*m, cp.schedule);

    auto ideal = runNoisy(*m, cp.schedule, b.circuit.numClbits(),
                          b.expected, noiselessOptions());
    EXPECT_DOUBLE_EQ(ideal.successRate, 1.0);
}

TEST(GreedyETrackBundle, AvailableThroughTheFacade)
{
    EXPECT_EQ(mapperKindFromName("GreedyE*+track"),
              MapperKind::GreedyETrack);
    CompilerOptions opts;
    opts.mapper = MapperKind::GreedyETrack;
    EXPECT_EQ(standardPipeline(test::day0Snapshot(), opts).name(),
              "GreedyE*+track");
}

} // namespace
} // namespace qc
