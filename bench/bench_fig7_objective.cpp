/**
 * @file
 * Figure 7 reproduction: success rate (a), execution duration (b) and
 * compile time (c) of T-SMT* and R-SMT* with w in {0, 0.5, 1} on BV4,
 * HS6 and Toffoli. w = 0.5 should win success rate while staying
 * near-optimal in duration (paper: up to 9.25x over T-SMT*).
 */

#include "bench_util.hpp"

using namespace qc;

int
main()
{
    const std::uint64_t seed = bench::benchSeed();
    const int trials = bench::benchTrials();
    bench::banner("Figure 7: choice of optimization objective", seed);
    ExperimentEnv env(seed);
    auto m = std::make_shared<const Machine>(env.machineForDay(0));

    struct Config
    {
        std::string label;
        CompilerOptions options;
    };
    std::vector<Config> configs;
    {
        CompilerOptions t;
        t.mapper = MapperKind::TSmtStar;
        t.smtTimeoutMs = kBenchSmtTimeoutMs;
        configs.push_back({"T-SMT*", t});
        for (double w : {1.0, 0.0, 0.5}) {
            CompilerOptions r;
            r.mapper = MapperKind::RSmtStar;
            r.readoutWeight = w;
            r.smtTimeoutMs = kBenchSmtTimeoutMs;
            configs.push_back({"R-SMT* w=" + Table::fmt(w, 1), r});
        }
    }

    for (const char *metric : {"a: success rate", "b: duration (slots)",
                               "c: compile time (s)"}) {
        std::vector<std::string> headers{"Benchmark"};
        for (const auto &c : configs)
            headers.push_back(c.label);
        Table t(headers);
        for (const char *name : {"BV4", "HS6", "Toffoli"}) {
            Benchmark b = benchmarkByName(name);
            std::vector<std::string> row{name};
            for (const auto &c : configs) {
                MeasuredRun run =
                    runMeasured(m, b, c.options, trials, seed);
                if (metric[0] == 'a') {
                    row.push_back(
                        Table::fmt(run.execution.successRate));
                } else if (metric[0] == 'b') {
                    row.push_back(Table::fmt(
                        static_cast<long long>(run.compiled.duration)));
                } else {
                    row.push_back(
                        Table::fmt(run.compiled.compileSeconds, 2));
                }
            }
            t.addRow(std::move(row));
        }
        std::cout << "Fig 7" << metric << "\n";
        t.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "Paper shape: w=0.5 has the best success rate; its "
                 "duration is close to\nT-SMT*'s optimum; every "
                 "configuration compiles in under a minute.\n";
    return 0;
}
