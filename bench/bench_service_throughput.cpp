/**
 * @file
 * Compile-service throughput: serial vs parallel batch compilation,
 * plus compile-cache effectiveness on an identical re-run.
 *
 * Workload: 32 synthetic programs (paper Sec. 6 generator) compiled
 * with the GreedyE* heuristic against 4 calibration days (8 programs
 * each) — the daily-recompilation shape. The machine is a 6x6 grid
 * (the scalability study's mid-size point) so each job carries real
 * mapping work rather than thread-pool overhead. Three measurements:
 *
 *   1. serial:    1 worker, cold caches,
 *   2. parallel:  8 workers, cold caches   -> speedup,
 *   3. re-run:    same batch on the warm parallel service
 *                                          -> cache hit rate.
 *
 * Override QC_BENCH_JOBS to change the parallel worker count.
 */

#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "service/compile_service.hpp"
#include "workloads/random_circuits.hpp"

namespace {

using namespace qc;
using namespace qc::service;

constexpr int kPrograms = 8;
constexpr int kDays = 4; // 8 programs x 4 days = 32 jobs

std::vector<CompileRequest>
makeBatch(const CalibrationModel &model, std::uint64_t seed)
{
    std::vector<std::pair<std::string, Circuit>> programs;
    for (int i = 0; i < kPrograms; ++i) {
        RandomCircuitSpec spec;
        spec.numQubits = 20 + 4 * (i % 4); // 20..32 of the 36 qubits
        spec.numGates = 768;
        spec.seed = seed + static_cast<std::uint64_t>(i);
        programs.emplace_back("rand" + std::to_string(i),
                              makeRandomCircuit(spec));
    }
    CompilerOptions options;
    options.mapper = MapperKind::GreedyE;
    return CompileService::dailyBatch(model, programs, 0, kDays,
                                      options);
}

} // namespace

int
main()
{
    const std::uint64_t seed = qc::bench::benchSeed();
    int jobs = 8;
    if (const char *s = std::getenv("QC_BENCH_JOBS"))
        jobs = std::atoi(s);

    std::cout << "=== compile-service throughput (32-job GreedyE* "
                 "batch, 4 calibration days) ===\n"
              << "machine: synthetic 6x6 grid, seed " << seed
              << "\n\nhardware concurrency: "
              << std::thread::hardware_concurrency() << " (speedup is "
              << "bounded by available cores)\n\n";

    CalibrationModel model(GridTopology(6, 6), seed);

    // 1. Serial reference: one worker, cold machine pool and cache.
    ServiceOptions serial_opts;
    serial_opts.threads = 1;
    CompileService serial(serial_opts);
    BatchResult s = serial.compileBatch(makeBatch(model, seed));
    const double serial_wall = s.report.wallSeconds;

    // 2. Parallel, cold: fresh service so nothing is pre-warmed.
    ServiceOptions par_opts;
    par_opts.threads = jobs;
    CompileService parallel(par_opts);
    BatchResult p = parallel.compileBatch(makeBatch(model, seed));
    const double parallel_wall = p.report.wallSeconds;

    // 3. Identical batch again on the warm service: cache hits.
    BatchResult rerun = parallel.compileBatch(makeBatch(model, seed));
    const double rerun_wall = rerun.report.wallSeconds;
    const double rerun_hit_rate =
        rerun.report.jobs == 0
            ? 0.0
            : static_cast<double>(rerun.report.cacheHits) /
                  rerun.report.jobs;

    Table t({"configuration", "wall s", "jobs/s", "cache hits",
             "machine builds"});
    t.addRow({"serial (1 worker)", Table::fmt(serial_wall),
              Table::fmt(s.report.jobs / serial_wall),
              Table::fmt(static_cast<long long>(s.report.cacheHits)),
              Table::fmt(static_cast<long long>(
                  s.report.machinePool.builds))});
    t.addRow({"parallel (" + std::to_string(jobs) + " workers)",
              Table::fmt(parallel_wall),
              Table::fmt(p.report.jobs / parallel_wall),
              Table::fmt(static_cast<long long>(p.report.cacheHits)),
              Table::fmt(static_cast<long long>(
                  p.report.machinePool.builds))});
    t.addRow({"re-run (warm cache)", Table::fmt(rerun_wall),
              Table::fmt(rerun.report.jobs / rerun_wall),
              Table::fmt(
                  static_cast<long long>(rerun.report.cacheHits)),
              Table::fmt(static_cast<long long>(
                  rerun.report.machinePool.builds))});
    t.print(std::cout);

    std::cout << "\nspeedup (serial/parallel): "
              << Table::fmt(serial_wall / parallel_wall) << "x\n"
              << "re-run cache hit rate: "
              << Table::fmt(rerun_hit_rate) << " ("
              << rerun.report.cacheHits << "/" << rerun.report.jobs
              << ")\n\nparallel service report:\n"
              << p.report.toString();

    const bool failed = s.report.failed + p.report.failed +
                            rerun.report.failed >
                        0;
    return failed ? 1 : 0;
}
