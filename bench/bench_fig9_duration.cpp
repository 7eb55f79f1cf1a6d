/**
 * @file
 * Figure 9 reproduction: execution duration (timeslots) of T-SMT(RR),
 * T-SMT*(RR), T-SMT*(1BP) and R-SMT*(1BP) on all 12 benchmarks.
 * Noise-aware durations should beat the static model by ~1.6x, and
 * R-SMT* should stay close to the duration-optimal variants.
 */

#include "bench_util.hpp"
#include "support/stats.hpp"

using namespace qc;

int
main()
{
    const std::uint64_t seed = bench::benchSeed();
    bench::banner("Figure 9: execution duration by variant", seed);
    ExperimentEnv env(seed);
    auto m = std::make_shared<const Machine>(env.machineForDay(0));

    struct Config
    {
        std::string label;
        CompilerOptions options;
    };
    std::vector<Config> configs;
    auto add = [&](const std::string &label, MapperKind kind,
                   RoutingPolicy policy) {
        CompilerOptions o;
        o.mapper = kind;
        o.policy = policy;
        o.smtTimeoutMs = kBenchSmtTimeoutMs;
        configs.push_back({label, o});
    };
    add("T-SMT RR", MapperKind::TSmt,
        RoutingPolicy::RectangleReservation);
    add("T-SMT* RR", MapperKind::TSmtStar,
        RoutingPolicy::RectangleReservation);
    add("T-SMT* 1BP", MapperKind::TSmtStar, RoutingPolicy::OneBendPath);
    add("R-SMT* 1BP", MapperKind::RSmtStar, RoutingPolicy::OneBendPath);

    std::vector<std::string> headers{"Benchmark"};
    for (const auto &c : configs)
        headers.push_back(c.label);
    Table t(headers);

    std::vector<double> static_durations, aware_durations;
    for (const auto &b : paperBenchmarks()) {
        std::vector<std::string> row{b.name};
        for (size_t i = 0; i < configs.size(); ++i) {
            CompiledProgram cp =
                standardPipeline(m, configs[i].options).compile(b.circuit);
            row.push_back(
                Table::fmt(static_cast<long long>(cp.duration)));
            if (i == 0)
                static_durations.push_back(
                    static_cast<double>(cp.duration));
            if (i == 1)
                aware_durations.push_back(
                    static_cast<double>(cp.duration));
        }
        t.addRow(std::move(row));
    }
    t.print(std::cout);

    std::vector<double> gains;
    for (size_t i = 0; i < static_durations.size(); ++i)
        gains.push_back(static_durations[i] / aware_durations[i]);
    std::cout << "\nT-SMT -> T-SMT* duration gain: geomean "
              << Table::fmt(geomean(gains), 2) << "x, max "
              << Table::fmt(maxOf(gains), 2)
              << "x (paper: ~1.6x, max 1.68x)\n";
    return 0;
}
