/**
 * @file
 * Figure 10 reproduction: success rate of the noise-aware heuristics
 * GreedyE* and GreedyV* against R-SMT*(w=0.5) on all 12 benchmarks.
 * GreedyE* should be comparable to the SMT optimum and GreedyV*
 * slightly behind (paper Sec. 7.4).
 */

#include <cmath>

#include "bench_util.hpp"
#include "support/stats.hpp"

using namespace qc;

int
main()
{
    const std::uint64_t seed = bench::benchSeed();
    const int trials = bench::benchTrials();
    bench::banner("Figure 10: heuristics vs optimal", seed);
    ExperimentEnv env(seed);
    auto m = std::make_shared<const Machine>(env.machineForDay(0));

    CompilerOptions rsmt;
    rsmt.mapper = MapperKind::RSmtStar;
    rsmt.smtTimeoutMs = kBenchSmtTimeoutMs;
    CompilerOptions ge;
    ge.mapper = MapperKind::GreedyE;
    CompilerOptions gv;
    gv.mapper = MapperKind::GreedyV;

    Table t({"Benchmark", "R-SMT* w=0.5", "GreedyE*", "GreedyV*",
             "GreedyE*/R-SMT*"});
    std::vector<double> ratios_e, ratios_v;
    for (const auto &b : paperBenchmarks()) {
        auto rr = runMeasured(m, b, rsmt, trials, seed);
        auto re = runMeasured(m, b, ge, trials, seed);
        auto rv = runMeasured(m, b, gv, trials, seed);
        double ratio_e = re.execution.successRate /
                         std::max(rr.execution.successRate, 1e-3);
        ratios_e.push_back(ratio_e);
        ratios_v.push_back(rv.execution.successRate /
                           std::max(rr.execution.successRate, 1e-3));
        t.addRow({b.name, Table::fmt(rr.execution.successRate),
                  Table::fmt(re.execution.successRate),
                  Table::fmt(rv.execution.successRate),
                  Table::fmt(ratio_e, 2) + "x"});
    }
    t.print(std::cout);
    std::cout << "\nGeomean vs R-SMT*: GreedyE* "
              << Table::fmt(geomean(ratios_e), 2) << "x, GreedyV* "
              << Table::fmt(geomean(ratios_v), 2)
              << "x (paper: GreedyE* comparable to R-SMT*, GreedyV* "
                 "behind)\n";
    return 0;
}
