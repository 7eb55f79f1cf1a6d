/**
 * @file
 * Concurrent compilation service for batch/daily workloads.
 *
 * The paper's operational model (Sec. 2, Fig. 6) recompiles every
 * program against each fresh calibration snapshot — at production
 * scale, thousands of independent (circuit x calibration-day) jobs
 * per cycle. This service turns the one-shot NoiseAdaptiveCompiler
 * facade into that batch engine:
 *
 *   - a ThreadPool executes jobs concurrently,
 *   - a MachinePool builds each machine-day snapshot once and shares
 *     it across all jobs of that day,
 *   - a CompileCache returns previously compiled results for exact
 *     (circuit, calibration, options) repeats.
 *
 * Jobs run the staged pass pipeline (core/pipeline.hpp): failures
 * come back as structured CompileStatus values with the failing
 * stage recorded, and every fresh compile carries per-stage wall
 * times that ServiceReport aggregates into a batch-wide breakdown.
 *
 * Every mapper is deterministic, so a batch compiled with N workers
 * is bit-identical to the same batch compiled serially — the
 * test suite asserts this.
 */

#ifndef QC_SERVICE_COMPILE_SERVICE_HPP
#define QC_SERVICE_COMPILE_SERVICE_HPP

#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "core/portfolio.hpp"
#include "ir/circuit.hpp"
#include "machine/calibration_model.hpp"
#include "service/compile_cache.hpp"
#include "service/machine_pool.hpp"
#include "service/thread_pool.hpp"

namespace qc::service {

/** Service-wide configuration. */
struct ServiceOptions
{
    int threads = 0;                ///< workers; <= 0 = hardware
    std::size_t cacheCapacity = 4096; ///< compile-cache entries; 0 off
    std::size_t cacheByteCapacity = 0; ///< approx cache bytes; 0 = unbounded
    std::size_t machinePoolCapacity = 64; ///< LRU snapshots; 0 = unbounded
};

/** One compilation job: a program against one machine-day. */
struct CompileRequest
{
    std::string tag;        ///< caller's label, echoed in the result
    int day = 0;            ///< calibration day (reports only)
    Circuit circuit;
    Topology topo = GridTopology::ibmq16();
    Calibration cal;
    CompilerOptions options;
};

/** Outcome of one job. */
struct CompileResult
{
    std::string tag;
    int day = 0;
    bool ok = false;       ///< a compiled artifact was produced
    bool cacheHit = false;

    /**
     * Diagnostic text: the status message (also set for degraded
     * fallbacks), empty on clean success.
     */
    const std::string &error() const { return status.message; }

    /**
     * Structured outcome: ok / infeasible / solver-timeout /
     * internal-error. May be non-ok while `ok` is true when the
     * solver timed out but the pipeline produced a degraded fallback
     * program (such results are never cached).
     */
    CompileStatus status;

    /** Pipeline stage that failed ("placement", ...); empty if none. */
    std::string failedStage;

    /**
     * Per-stage wall times and notes for freshly compiled jobs —
     * recorded for failures too, so a failed job shows which stage
     * died and how long it ran. Empty for cache hits (the cached
     * program carries its original compile's traces).
     */
    std::vector<StageTrace> stageTraces;

    /**
     * Per-candidate outcomes when the job raced a portfolio
     * (options.portfolio.enabled), in bundle order; empty otherwise
     * and for cache hits. The winner's stage traces appear here *and*
     * in stageTraces — report aggregation reads only this vector for
     * portfolio jobs to avoid double counting.
     */
    std::vector<PortfolioCandidate> portfolio;

    /** Winning bundle's name for portfolio jobs; empty otherwise. */
    std::string winner;

    /** The compiled artifact (shared with the cache); null on error. */
    std::shared_ptr<const CompiledProgram> program;

    /**
     * The machine snapshot the job compiled against. Null on error;
     * may also be null for a cache hit whose snapshot was LRU-evicted
     * from the machine pool (hits never pay for a rebuild).
     */
    std::shared_ptr<const Machine> machine;

    /** Job wall time, failures included (cache hits ~0). */
    double seconds = 0.0;
};

/**
 * What the caller of compileJob plugs in: its cache tiers and its
 * machine snapshot. Every hook runs inside compileJob's exception
 * fence.
 */
struct JobHooks
{
    /**
     * Serve the job from the caller's cache: on a hit, set
     * result.program (and result.machine, when a snapshot is at hand
     * without building one) and return true.
     */
    std::function<bool(CompileResult &result)> lookup;

    /** The machine snapshot to compile against on a cache miss. */
    std::function<std::shared_ptr<const Machine>()> machine;

    /** Keep a clean result: a program whose status is ok. */
    std::function<void(const std::shared_ptr<const CompiledProgram> &)>
        store;
};

/**
 * The job core of CompileService and the daemon: serve `circuit` from
 * the caller's cache, or compile it — racing options.portfolio on
 * `pool` when enabled, else the standard pipeline — and store the
 * result when it is clean. Degraded fallbacks come back ok but are
 * never stored. Never throws: any exception, the hooks' included,
 * becomes an internal-error result with no program or machine. The
 * caller fills tag, day and seconds.
 */
CompileResult compileJob(const Circuit &circuit,
                         const CompilerOptions &options, ThreadPool &pool,
                         const JobHooks &hooks);

/** Per-stage aggregate across a batch. */
struct StageSummary
{
    std::string stage;   ///< "placement/GreedyE*", "scheduling/list", ...
    int runs = 0;
    double seconds = 0.0;
    int failures = 0;    ///< jobs whose pipeline died in this stage
};

/** Aggregate accounting for one batch (or a whole service lifetime). */
struct ServiceReport
{
    int jobs = 0;
    int succeeded = 0;
    int failed = 0;
    int cacheHits = 0;
    int degraded = 0;    ///< ok jobs with a non-ok status (fallbacks)

    /**
     * Per-stage time breakdown over freshly compiled jobs, in
     * first-seen stage order (cache hits contribute nothing).
     */
    std::vector<StageSummary> stages;

    /** Jobs that actually raced a portfolio (cache hits race nothing). */
    int portfolioJobs = 0;
    /** Candidates cancelled early across all portfolio races. */
    int portfolioCancelled = 0;
    /**
     * Wins per bundle ("<name>" -> count), in kAllMapperKinds order so
     * the report is deterministic. Only bundles that won appear.
     */
    std::vector<std::pair<std::string, int>> portfolioWins;

    double wallSeconds = 0.0;    ///< batch wall-clock time
    double jobSeconds = 0.0;     ///< sum of per-job times
    double meanJobSeconds() const
    {
        return jobs == 0 ? 0.0 : jobSeconds / jobs;
    }
    /** Jobs per wall-clock second. */
    double throughput() const
    {
        return wallSeconds <= 0.0 ? 0.0 : jobs / wallSeconds;
    }

    MachinePoolStats machinePool;
    CompileCacheStats cache;

    /** Multi-line human-readable summary. */
    std::string toString() const;
};

/** A batch's results plus its aggregate report. */
struct BatchResult
{
    std::vector<CompileResult> results; ///< in request order
    ServiceReport report;
};

/**
 * The compilation service.
 *
 * Thread-safe: submit()/compileBatch() may be called from any thread.
 * The machine pool and compile cache persist across batches, so a
 * second identical batch is served almost entirely from cache.
 */
class CompileService
{
  public:
    explicit CompileService(ServiceOptions options = {});

    /** Worker count actually in use. */
    int numThreads() const { return pool_.numThreads(); }

    /** Enqueue one job; the future never throws (errors go in .ok). */
    std::future<CompileResult> submit(CompileRequest request);

    /**
     * Compile a whole batch, blocking until every job finishes.
     * Results come back in request order with a batch report.
     */
    BatchResult compileBatch(std::vector<CompileRequest> requests);

    /**
     * Drop jobs submitted but not yet started (their futures become
     * broken promises — callers must not get() them). Returns the
     * number cancelled. Used by naqc's SIGINT path to stop a batch
     * without waiting out the whole queue.
     */
    std::size_t cancelPending();

    /**
     * Build the daily-recompilation workload: every program compiled
     * against each of days [firstDay, firstDay + numDays). Tags are
     * "<name>@d<day>".
     */
    static std::vector<CompileRequest>
    dailyBatch(const CalibrationModel &model,
               const std::vector<std::pair<std::string, Circuit>>
                   &programs,
               int firstDay, int numDays,
               const CompilerOptions &options);

    MachinePoolStats machinePoolStats() const
    {
        return machines_.stats();
    }
    CompileCacheStats cacheStats() const { return cache_.stats(); }

    /** Report over arbitrary results (adds current pool/cache stats). */
    ServiceReport makeReport(const std::vector<CompileResult> &results,
                             double wall_seconds) const;

  private:
    CompileResult runJob(const CompileRequest &request);

    ServiceOptions options_;
    MachinePool machines_;
    CompileCache cache_;
    ThreadPool pool_; ///< last member: workers die before state above
};

} // namespace qc::service

#endif // QC_SERVICE_COMPILE_SERVICE_HPP
