/**
 * @file
 * Figure 6 reproduction: success rate of BV4, HS6 and Toffoli over
 * one week of daily calibrations, recompiled each day with T-SMT*
 * and R-SMT*. R-SMT* should track the machine drift more resiliently.
 */

#include "bench_util.hpp"
#include "support/stats.hpp"

using namespace qc;

int
main()
{
    const std::uint64_t seed = bench::benchSeed();
    const int trials = bench::benchTrials();
    bench::banner("Figure 6: resilience to daily variations", seed);
    ExperimentEnv env(seed);

    const std::vector<std::string> names{"BV4", "HS6", "Toffoli"};
    CompilerOptions tsmt;
    tsmt.mapper = MapperKind::TSmtStar;
    tsmt.smtTimeoutMs = kBenchSmtTimeoutMs;
    CompilerOptions rsmt;
    rsmt.mapper = MapperKind::RSmtStar;
    rsmt.smtTimeoutMs = kBenchSmtTimeoutMs;

    std::vector<std::string> headers{"Day"};
    for (const auto &n : names) {
        headers.push_back(n + " T-SMT*");
        headers.push_back(n + " R-SMT*");
    }
    Table t(headers);

    std::vector<double> t_rates, r_rates;
    for (int day = 0; day < 7; ++day) {
        auto m = std::make_shared<const Machine>(env.machineForDay(day));
        std::vector<std::string> row{
            Table::fmt(static_cast<long long>(day))};
        for (const auto &n : names) {
            Benchmark b = benchmarkByName(n);
            auto rt = runMeasured(m, b, tsmt, trials, seed + day);
            auto rr = runMeasured(m, b, rsmt, trials, seed + day);
            t_rates.push_back(rt.execution.successRate);
            r_rates.push_back(rr.execution.successRate);
            row.push_back(Table::fmt(rt.execution.successRate));
            row.push_back(Table::fmt(rr.execution.successRate));
        }
        t.addRow(std::move(row));
    }
    t.print(std::cout);
    std::cout << "\nWeek means: T-SMT* " << Table::fmt(mean(t_rates))
              << ", R-SMT* " << Table::fmt(mean(r_rates))
              << " (paper: R-SMT* dominates every day)\n";
    return 0;
}
