/**
 * @file
 * Figure 5 reproduction: measured success rate of Qiskit, T-SMT* and
 * R-SMT* (w = 0.5) on all 12 benchmarks, plus the geomean/max gains
 * the paper headlines (2.9x geomean, up to 18x over Qiskit).
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
    bench::banner("Figure 5: success rate vs the Qiskit baseline",
                  seed);
    ExperimentEnv env(seed);
    auto m = std::make_shared<const Machine>(env.machineForDay(0));

    CompilerOptions qiskit;
    qiskit.mapper = MapperKind::Qiskit;
    CompilerOptions tsmt;
    tsmt.mapper = MapperKind::TSmtStar;
    tsmt.smtTimeoutMs = kBenchSmtTimeoutMs;
    CompilerOptions rsmt;
    rsmt.mapper = MapperKind::RSmtStar;
    rsmt.readoutWeight = 0.5;
    rsmt.smtTimeoutMs = kBenchSmtTimeoutMs;

    Table t({"Benchmark", "Qiskit", "T-SMT*", "R-SMT* w=0.5",
             "R-SMT*/Qiskit"});
    std::vector<double> gains;
    for (const auto &b : paperBenchmarks()) {
        auto rq = runMeasured(m, b, qiskit, trials, seed);
        auto rt = runMeasured(m, b, tsmt, trials, seed);
        auto rr = runMeasured(m, b, rsmt, trials, seed);
        double gain = rr.execution.successRate /
                      std::max(rq.execution.successRate, 1e-3);
        gains.push_back(gain);
        t.addRow({b.name, Table::fmt(rq.execution.successRate),
                  Table::fmt(rt.execution.successRate),
                  Table::fmt(rr.execution.successRate),
                  Table::fmt(gain, 2) + "x"});
    }
    t.print(std::cout);
    std::cout << "\nR-SMT* vs Qiskit: geomean " << Table::fmt(
                     geomean(gains), 2)
              << "x, max " << Table::fmt(maxOf(gains), 2)
              << "x (paper: geomean 2.9x, max 18x)\n"
              << "Trials per point: " << trials << "\n";
    return 0;
}
