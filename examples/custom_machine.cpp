/**
 * @file
 * Custom machine: build your own topology and calibration data (e.g.
 * from a vendor's published device properties) and compare every
 * compiler variant on it. Demonstrates that the library is not tied
 * to the IBMQ16 instance — or to grids at all.
 *
 * Part 1 models a 4x4 grid with one "bad corner": a cluster of noisy
 * qubits and links that a noise-adaptive mapper must avoid. Part 2
 * brings your own device graph: the same compilers on a heavy-hex
 * lattice and on an edge-list-loaded ring with one noisy arc.
 */

#include <iostream>

#include "core/experiment.hpp"
#include "support/table.hpp"

namespace {

using namespace qc;

/** Uniform good-machine calibration for any topology. */
Calibration
uniformCal(const Topology &topo)
{
    Calibration cal;
    cal.t1Us.assign(topo.numQubits(), 90.0);
    cal.t2Us.assign(topo.numQubits(), 75.0);
    cal.readoutError.assign(topo.numQubits(), 0.03);
    cal.cnotError.assign(static_cast<size_t>(topo.numEdges()), 0.02);
    cal.cnotDuration.assign(static_cast<size_t>(topo.numEdges()), 9);
    cal.oneQubitError = 0.001;
    cal.oneQubitDuration = 1;
    cal.readoutDuration = 12;
    return cal;
}

void
badCornerGrid()
{
    // 1. Topology: a 16-qubit 4x4 grid.
    GridTopology topo(4, 4);

    // 2. Hand-built calibration: a good machine with a bad corner.
    Calibration cal = uniformCal(topo);
    // Corner (rows 0-1, cols 0-1) is poor: noisy readout + links.
    for (int x = 0; x < 2; ++x) {
        for (int y = 0; y < 2; ++y) {
            HwQubit h = topo.qubitAt(x, y);
            cal.readoutError[h] = 0.22;
            cal.t2Us[h] = 25.0;
            for (HwQubit n : topo.neighbors(h))
                cal.cnotError[topo.edgeBetween(h, n)] = 0.15;
        }
    }
    cal.validate(topo);
    auto machine = std::make_shared<const Machine>(topo, cal);

    // 3. Compile the Toffoli kernel with every variant and measure.
    Benchmark bench = benchmarkByName("Toffoli");
    Table t({"Mapper", "Success rate", "Duration", "SWAPs",
             "Uses bad corner?"});
    for (MapperKind kind :
         {MapperKind::Qiskit, MapperKind::TSmt, MapperKind::TSmtStar,
          MapperKind::RSmtStar, MapperKind::GreedyV,
          MapperKind::GreedyE}) {
        CompilerOptions opts;
        opts.mapper = kind;
        opts.smtTimeoutMs = 20'000;
        MeasuredRun run = runMeasured(machine, bench, opts, 4096, 11);

        bool bad_corner = false;
        for (HwQubit h : run.compiled.layout) {
            GridPos p = topo.posOf(h);
            bad_corner = bad_corner || (p.x < 2 && p.y < 2);
        }
        t.addRow({run.mapper, Table::fmt(run.execution.successRate),
                  Table::fmt(static_cast<long long>(
                      run.compiled.duration)),
                  Table::fmt(static_cast<long long>(
                      run.compiled.swapCount)),
                  bad_corner ? "yes" : "no"});
    }
    t.print(std::cout);
    std::cout << "\nCalibration-aware mappers (starred) steer clear of "
                 "the bad corner; the\nbaseline and T-SMT walk right "
                 "into it.\n";
}

void
bringYourOwnGraph()
{
    // Non-grid machines drop into the same pipeline. A heavy-hex
    // lattice straight from the factory...
    HeavyHexTopology heavyhex(3);

    // ...and a ring loaded from the edge-list text format you would
    // keep in a file next to your calibration data (naqc reaches the
    // same graph with `--topology file:ring.edges`).
    GraphTopology ring = GraphTopology::fromEdgeList(
        "# 8-qubit ring\n"
        "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n",
        "byo-ring8");
    Calibration ring_cal = uniformCal(ring);
    // One noisy arc (qubits 2-3-4): the noise-adaptive mappers
    // should place work on the far side of the ring.
    for (HwQubit h : {2, 3, 4}) {
        ring_cal.readoutError[h] = 0.20;
        for (HwQubit n : ring.neighbors(h))
            ring_cal.cnotError[ring.edgeBetween(h, n)] = 0.12;
    }

    Benchmark bench = benchmarkByName("Toffoli");
    Table t({"Machine", "Mapper", "Success rate", "Duration", "SWAPs"});
    for (const auto &[topo, cal] :
         {std::pair<Topology, Calibration>{heavyhex,
                                           uniformCal(heavyhex)},
          std::pair<Topology, Calibration>{ring, ring_cal}}) {
        auto machine = std::make_shared<const Machine>(topo, cal);
        for (MapperKind kind : {MapperKind::Qiskit, MapperKind::GreedyE,
                                MapperKind::RSmtStar}) {
            CompilerOptions opts;
            opts.mapper = kind;
            opts.smtTimeoutMs = 20'000;
            MeasuredRun run =
                runMeasured(machine, bench, opts, 4096, 11);
            t.addRow({topo.name(), run.mapper,
                      Table::fmt(run.execution.successRate),
                      Table::fmt(static_cast<long long>(
                          run.compiled.duration)),
                      Table::fmt(static_cast<long long>(
                          run.compiled.swapCount))});
        }
    }
    t.print(std::cout);
    std::cout << "\nSame passes, no grid anywhere: routing uses BFS "
                 "candidate paths and\nqubit-set reservations instead "
                 "of rectangles.\n";
}

} // namespace

int
main()
{
    badCornerGrid();
    std::cout << "\n";
    bringYourOwnGraph();
    return 0;
}
