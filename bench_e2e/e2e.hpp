/**
 * @file
 * Shared declarations of the naqcd end-to-end benchmark (see
 * README.md): the workloads and their request streams, the output
 * checks, the socket-driven timed window and the traced replay.
 */

#ifndef NAQC_E2E_HPP
#define NAQC_E2E_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "machine/topology.hpp"
#include "support/rng.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline Clock::time_point
after(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/** Calibration stream naqcd and every in-process check use. */
inline constexpr std::uint64_t kCalibrationSeed = 20190131;

/** One compile request, built only from knobs the protocol exposes. */
struct Job
{
    std::string qasm;           ///< inline program text
    std::string protocolArgs;   ///< "mapper=..." or "portfolio=all"
    qc::CompilerOptions options; ///< what naqcd derives from the args
    std::string bundle;         ///< metric label: "tsmt_star", ...
    int kernel = -1;            ///< Table 2 index; -1 = generated
    int gates = 1;              ///< program gates, measurements included
    std::uint64_t identity = 0; ///< (program, bundle) identity
};

/** Fixed shape of one workload; requests come from RequestStream. */
struct Workload
{
    std::string name;
    std::string topology;     ///< naqcd --topology spec
    int connections = 1;      ///< closed-loop clients
    bool wholePasses = false; ///< send the job list in whole passes
                              ///< (one connection only)
    bool midpointReload = false; ///< `reload day=1` mid-window
    bool diskCache = false;   ///< naqcd --cache-dir (fresh per daemon)
    std::size_t cacheCapacity = 4096; ///< naqcd --cache-capacity
    double requestDeadlineS = 60.0;   ///< unanswered after this = failed
    /**
     * Sample naqcd's VmHWM once this many requests are answered; 0 =
     * at the window's end. naqcd's memory grows with the requests it
     * has served, so a fixed count keeps host speed out of the figure.
     */
    std::uint64_t rssAfterAnswers = 0;
};

/** Throws FatalError for an unknown name. */
Workload workloadByName(const std::string &name);

/** Bundle label used in metric names ("greedye_track", ...). */
std::string bundleLabel(qc::MapperKind kind);

bool isSmtBundle(qc::MapperKind kind);

/**
 * The deterministic request sequence of one connection. portfolio_race
 * cycles through the 12 Table 2 kernels, reshuffled by the seed every
 * pass; heuristic_stream draws fresh programs and repeats.
 */
class RequestStream
{
  public:
    RequestStream(const Workload &workload, std::uint64_t seed,
                  int connection);

    Job next();

    /** True when the next job starts a pass (always for streams). */
    bool atPassStart() const;

  private:
    struct Program
    {
        bool denseCnot = false;
        int qubits = 0;
        int gates = 0;
        std::uint64_t seed = 0;
        qc::MapperKind bundle = qc::MapperKind::Qiskit;
    };
    Job makeProgramJob(const Program &program) const;

    qc::Rng rng_;
    std::vector<Job> pass_;      ///< portfolio_race: one job per kernel
    std::vector<std::size_t> order_;
    std::size_t cursor_ = 0;
    std::vector<Program> history_; ///< heuristic_stream draws so far
    std::vector<int> mix_; ///< (kind, bundle) pairs left in this cycle
};

/** Result line of one answered submit, plus its QASM payload. */
struct Response
{
    bool answered = false; ///< closing "." (or a bare err line) read
    std::string line;      ///< "ok id=... ok=1 ..." / "err ..."
    std::string qasm;
    std::map<std::string, std::string> fields; ///< key=value of line

    bool compiled() const;
    int epoch() const;
};

/**
 * FNV-1a of a QASM text without its leading `// name` comment, so a
 * daemon response and an in-process emit of the same program agree.
 */
std::uint64_t qasmBodyHash(const std::string &qasm);

/**
 * Checks that need only the response: the job compiled, and every
 * two-qubit gate sits on a coupling edge. Returns "" or the reason.
 */
std::string checkResponse(const Response &response,
                          const qc::Topology &topology);

/** Noise-free outcome of the returned QASM vs Benchmark::expected. */
std::string checkTable2Outcome(const Job &job,
                               const std::string &qasm);

/** A heuristic_stream response kept for the in-process recompile. */
struct SampledResponse
{
    Job job;
    int epoch = 1;               ///< 1 = day 0, 2 = day 1 (reloaded)
    std::uint64_t bodyHash = 0;
};

/**
 * Recompile each distinct sampled job in process with
 * standardPipeline on its epoch's machine: the emitted QASM must match
 * the daemon's byte for byte, and ProgramVerifier must accept it.
 * Returns one reason per failed check.
 */
std::vector<std::string>
recompileAndCompare(const Workload &workload,
                    const std::vector<SampledResponse> &samples);

/** Everything one timed window measured. */
struct WindowResult
{
    std::vector<double> latencies; ///< seconds, answered requests
    std::vector<double> psuccessPerGate; ///< psuccess^(1/gates)
    std::vector<double> durationPerGate; ///< makespan / gates
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< why checks failed
    double wallSeconds = 0.0;   ///< first send to last answer
    double daemonCpuSeconds = 0.0; ///< naqcd CPU time over the window
    std::vector<double> setupSeconds; ///< naqcd CPU to its first pong
    std::vector<double> setupWallSeconds; ///< spawn to first pong
    double peakRssMb = 0.0;     ///< naqcd VmHWM (Workload::rssAfterAnswers)
    std::uint64_t rssAnswers = 0; ///< answers served when it was sampled
    double stealShare = 0.0;    ///< host CPU steal over the window
    std::vector<std::size_t> sentPerConnection;
    long reloadAfter = -1;      ///< connection 0 jobs before reload
    std::string daemonExit;     ///< how naqcd ended
};

/** Spawn naqcd, drive the closed loop for one window, check outputs. */
WindowResult runSocketWindow(const Workload &workload,
                             std::uint64_t seed, double seconds,
                             const std::string &naqcd);

/** One named result metric, as the result JSON prints it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Replay exactly the requests `window` sent, in this process, with a
 * span around every call into a layer's public entry point. Prints
 * the layer share table to stderr, writes the spans to
 * `spans_path`, and returns the per-layer metrics.
 */
std::vector<Metric>
runTracedReplay(const Workload &workload, std::uint64_t seed,
                const WindowResult &window,
                const std::string &spans_path,
                std::vector<std::string> &failures);

} // namespace e2e

#endif // NAQC_E2E_HPP
