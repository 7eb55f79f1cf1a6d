/**
 * @file
 * naqc_e2e — one run of the naqcd end-to-end benchmark.
 *
 *   naqc_e2e --workload NAME --seed N --seconds S --trace 0|1
 *            --naqcd PATH --spans FILE
 *
 * Run it from a scratch directory: naqcd's socket, log and cache go
 * there. The last stdout line is the result JSON: with --trace 0 the
 * end-to-end metrics of the socket-driven window, with --trace 1 the
 * per-layer metrics of the traced replay of that same window. Exits 1
 * when any output check fails, 2 on a usage or set-up error.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "e2e.hpp"

#include "support/stats.hpp"

using namespace e2e;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 20190131;
    double seconds = 30.0;
    int trace = 0;
    std::string naqcd;
    std::string spans = "spans.json";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::stoull(value);
        else if (flag == "--seconds")
            a.seconds = std::stod(value);
        else if (flag == "--trace")
            a.trace = std::stoi(value);
        else if (flag == "--naqcd")
            a.naqcd = value;
        else if (flag == "--spans")
            a.spans = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (argc % 2 == 0 || a.workload.empty() || a.naqcd.empty())
        throw std::invalid_argument("usage: naqc_e2e --workload NAME "
                                    "--naqcd PATH [--seed N] [--seconds "
                                    "S] [--trace 0|1] [--spans FILE]");
    return a;
}

/** Linear-interpolated percentile of sorted samples. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (rank - static_cast<double>(lo)) *
                            (sorted[hi] - sorted[lo]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : v)
        sum += std::log(x);
    return std::exp(sum / static_cast<double>(v.size()));
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << std::setprecision(12) << "{\"correct\": "
        << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    out << "}}";
    std::cout << out.str() << std::endl;
}

/**
 * End-to-end metrics of one window, the ones the result JSON carries.
 * Time is naqcd CPU time, which leaves out what the hypervisor steals:
 * on a shared host, steal swings wall-clock figures from run to run by
 * far more than a regression bound (README.md). Predicted success and
 * makespan are taken per program gate, so that the random program
 * sizes of heuristic_stream do not swamp their means.
 */
std::vector<Metric>
endToEnd(const WindowResult &r)
{
    const double n = static_cast<double>(r.latencies.size());
    return {
        {"cpu_ms_per_job", n > 0 ? r.daemonCpuSeconds / n * 1e3 : 0.0,
         "ms"},
        {"psuccess_per_gate_geomean", geomean(r.psuccessPerGate),
         "probability"},
        {"duration_per_gate_geomean", geomean(r.durationPerGate),
         "timeslots"},
        {"setup_s", qc::median(r.setupSeconds), "s"},
        {"peak_rss_mb", r.peakRssMb, "MB"},
    };
}

/**
 * Wall-clock figures of one window, for the report only. A tail
 * percentile needs at least 10 samples beyond it; where a workload has
 * too few (a portfolio_race pass answers 12 requests), it is left out.
 */
std::vector<Metric>
wallClock(const WindowResult &r)
{
    std::vector<double> lat = r.latencies;
    std::sort(lat.begin(), lat.end());
    const double n = static_cast<double>(lat.size());
    std::vector<Metric> out;
    for (int p : {50, 90, 99})
        if (p == 50 || n * (1.0 - p / 100.0) >= 10.0)
            out.push_back({"latency_p" + std::to_string(p) + "_ms",
                           percentile(lat, p) * 1e3, "ms"});
    out.push_back({"throughput_jobs_s",
                   r.wallSeconds > 0 ? n / r.wallSeconds : 0.0, "1/s"});
    out.push_back({"setup_wall_s", qc::median(r.setupWallSeconds), "s"});
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    // The in-process checks and the replay must compile what naqcd
    // compiles, which never runs with the validator forced on.
    ::unsetenv("QC_VERIFY");
    try {
        const Args args = parseArgs(argc, argv);
        const Workload w = workloadByName(args.workload);
        const WindowResult r =
            runSocketWindow(w, args.seed, args.seconds, args.naqcd);

        const std::vector<Metric> e2e = endToEnd(r);
        std::cerr << std::fixed << std::setprecision(4) << w.name
                  << " seed=" << args.seed << ": " << r.latencies.size()
                  << " latency samples, " << r.wallSeconds
                  << " s window\n";
        auto print = [](const Metric &m) {
            std::cerr << "  " << std::left << std::setw(26) << m.name
                      << std::right << std::setw(14) << m.value << " "
                      << m.unit << "\n";
        };
        for (const Metric &m : e2e)
            print(m);
        std::cerr << "  wall clock (reported, not in the result):\n";
        for (const Metric &m : wallClock(r))
            print(m);
        std::cerr << "  failed_ratio              " << std::setw(14)
                  << (r.attempted ? static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)
                                  : 0.0)
                  << " (" << r.failed << " of " << r.attempted << ")\n"
                  << "  host: nproc=" << std::thread::hardware_concurrency()
                  << " cpu_steal=" << std::setprecision(2)
                  << 100.0 * r.stealShare << "% over the window\n"
                  << "  naqcd: " << r.daemonExit
                  << "\n  peak_rss_mb sampled after " << r.rssAnswers
                  << " answers"
                  << (r.rssAnswers < w.rssAfterAnswers
                          ? " (window ended before the planned count)"
                          : "")
                  << "\n  setup_s samples (CPU ms):";
        for (double s : r.setupSeconds)
            std::cerr << " " << std::setprecision(2) << s * 1e3;
        std::cerr << "\n";

        std::vector<std::string> failures = r.failures;
        bool correct = r.failed == 0 && r.failures.empty();
        if (args.trace == 0) {
            for (const std::string &why : failures)
                std::cerr << "  CHECK FAILED: " << why << "\n";
            printJson(correct, r.attempted, r.failed, e2e);
            return correct ? 0 : 1;
        }

        std::vector<std::string> replay_failures;
        const std::vector<Metric> per_layer = runTracedReplay(
            w, args.seed, r, args.spans, replay_failures);
        for (const std::string &why : replay_failures)
            failures.push_back("replay: " + why);
        correct = correct && replay_failures.empty();
        for (const std::string &why : failures)
            std::cerr << "  CHECK FAILED: " << why << "\n";
        printJson(correct, r.attempted,
                  r.failed + replay_failures.size(), per_layer);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "naqc_e2e: " << e.what() << "\n";
        return 2;
    }
}
