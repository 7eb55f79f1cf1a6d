/**
 * @file
 * Figure 11 reproduction: compile time of R-SMT* vs GreedyE* on
 * random programs swept over qubit count x gate count (paper: 4-128
 * qubits, 128-2048 gates). The SMT curve explodes with size (the
 * paper reports up to 3 hours at 32 qubits x 384 gates); we cap each
 * solve with a wall-clock budget and report time-to-best, preserving
 * the scalability trend. GreedyE* stays under a second everywhere.
 */

#include "bench_util.hpp"
#include "workloads/random_circuits.hpp"

using namespace qc;

namespace {

/** Smallest even-ish grid of >= n qubits (paper-style machines). */
GridTopology
gridFor(int qubits)
{
    if (qubits <= 4)
        return GridTopology(2, 2);
    if (qubits <= 8)
        return GridTopology(2, 4);
    if (qubits <= 16)
        return GridTopology(2, 8);
    if (qubits <= 32)
        return GridTopology(4, 8);
    if (qubits <= 64)
        return GridTopology(8, 8);
    return GridTopology(8, 16);
}

} // namespace

int
main()
{
    const std::uint64_t seed = bench::benchSeed();
    bench::banner("Figure 11: compile-time scalability", seed);
    // SMT budget per point; override via QC_BENCH_SMT_BUDGET_MS.
    unsigned smt_budget = 10'000;
    if (const char *s = std::getenv("QC_BENCH_SMT_BUDGET_MS"))
        smt_budget = static_cast<unsigned>(std::atoi(s));

    struct Point
    {
        int qubits;
        int gates;
        bool runSmt;
    };
    const std::vector<Point> points{
        {4, 128, true},   {4, 512, true},   {8, 128, true},
        {8, 512, true},   {8, 1024, false}, {16, 256, true},
        {32, 384, true},  {32, 1024, false}, {64, 1024, false},
        {128, 2048, false},
    };

    Table t({"Qubits", "Gates", "GreedyE* (s)", "R-SMT* (s)",
             "R-SMT* proved optimal"});
    for (const auto &p : points) {
        GridTopology topo = gridFor(p.qubits);
        CalibrationModel model(topo, seed);
        auto m = std::make_shared<const Machine>(topo, model.forDay(0));

        RandomCircuitSpec spec;
        spec.numQubits = p.qubits;
        spec.numGates = p.gates;
        spec.seed = seed;
        Circuit prog = makeRandomCircuit(spec);

        CompilerOptions greedy;
        greedy.mapper = MapperKind::GreedyE;
        CompiledProgram gcp = standardPipeline(m, greedy).compile(prog);

        std::string smt_time = "-";
        std::string smt_opt = "skipped (budget)";
        if (p.runSmt) {
            CompilerOptions rsmt;
            rsmt.mapper = MapperKind::RSmtStar;
            rsmt.smtTimeoutMs = smt_budget;
            CompiledProgram rcp = standardPipeline(m, rsmt).compile(prog);
            smt_time = Table::fmt(rcp.compileSeconds, 2);
            smt_opt = rcp.solverOptimal ? "yes"
                                        : "no (capped at " +
                                              Table::fmt(
                                                  smt_budget / 1000.0,
                                                  0) +
                                              "s)";
        }
        t.addRow({Table::fmt(static_cast<long long>(p.qubits)),
                  Table::fmt(static_cast<long long>(p.gates)),
                  Table::fmt(gcp.compileSeconds, 4), smt_time,
                  smt_opt});
    }
    t.print(std::cout);
    std::cout << "\nPaper shape: SMT compile time grows by orders of "
                 "magnitude with size\n(3 hours at 32q x 384g on their "
                 "setup); greedy stays under one second.\nLarge SMT "
                 "points are wall-clock capped here (DESIGN.md, Known "
                 "deviations).\n";
    return 0;
}
