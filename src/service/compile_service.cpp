#include "compile_service.hpp"

#include <array>
#include <chrono>
#include <iterator>
#include <sstream>
#include <utility>

#include "service/fingerprints.hpp"
#include "service/portfolio_executor.hpp"
#include "support/logging.hpp"

namespace qc::service {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

CompileService::CompileService(ServiceOptions options)
    : options_(options),
      machines_(options.machinePoolCapacity),
      cache_(options.cacheCapacity, options.cacheByteCapacity),
      pool_(options.threads)
{
}

std::size_t
CompileService::cancelPending()
{
    return pool_.cancelPending();
}

std::future<CompileResult>
CompileService::submit(CompileRequest request)
{
    return pool_.submit(
        [this, request = std::move(request)]() mutable {
            return runJob(request);
        });
}

CompileResult
compileJob(const Circuit &circuit, const CompilerOptions &options,
           ThreadPool &pool, const JobHooks &hooks)
{
    CompileResult result;
    auto fail = [&result](std::string message) {
        result.ok = false;
        result.status = CompileStatus::internalError(std::move(message));
        result.program = nullptr;
        result.machine = nullptr;
    };
    try {
        if (hooks.lookup(result)) {
            result.ok = true;
            result.cacheHit = true;
            return result;
        }

        result.machine = hooks.machine();
        PipelineResult compiled;
        if (options.portfolio.enabled) {
            // Race the enabled bundles on this job's queue slot. The
            // pool executor borrows only idle workers (help-while-wait,
            // bounded by portfolio.maxWorkers), so a portfolio job can
            // never oversubscribe or wedge the pool.
            PortfolioPass pass(result.machine, options);
            PoolPortfolioExecutor exec(pool, options.portfolio.maxWorkers);
            PortfolioResult raced = pass.run(circuit, &exec);
            if (raced.winnerIndex >= 0)
                result.winner = raced
                                    .candidates[static_cast<std::size_t>(
                                        raced.winnerIndex)]
                                    .name;
            result.portfolio = std::move(raced.candidates);
            compiled = std::move(raced.best);
        } else {
            compiled = standardPipeline(result.machine, options).run(circuit);
        }

        result.status = compiled.status;
        result.failedStage = compiled.failedStage;
        if (!compiled.hasProgram) {
            result.stageTraces = std::move(compiled.program.stageTraces);
            result.machine = nullptr;
            return result;
        }
        // The program keeps its own trace copy: it may outlive this
        // result through the caller's cache.
        result.stageTraces = compiled.program.stageTraces;
        result.program = std::make_shared<const CompiledProgram>(
            std::move(compiled.program));
        result.ok = true;
        // Degraded solver fallbacks are usable but not worth pinning
        // in a cache.
        if (result.status.ok())
            hooks.store(result.program);
    } catch (const std::exception &e) {
        // bad_alloc, queue shutdown, a snapshot that cannot be built,
        // ... — a failing job must never poison the batch or escape
        // the future contract. (Compile failures themselves already
        // surface as status values.)
        fail(e.what());
    } catch (...) {
        fail("unknown exception during compilation");
    }
    return result;
}

CompileResult
CompileService::runJob(const CompileRequest &request)
{
    const auto start = std::chrono::steady_clock::now();

    CacheKey key;
    key.circuit = fingerprintCircuit(request.circuit);
    key.calibration = machineKey(request.topo, request.cal);
    key.options = fingerprintOptions(request.options);

    JobHooks hooks;
    hooks.lookup = [&](CompileResult &hit) {
        hit.program = cache_.lookup(key);
        // Only attach a snapshot that's still pooled: a cache hit
        // must never pay for a Machine rebuild.
        if (hit.program)
            hit.machine = machines_.tryAcquire(request.topo, request.cal);
        return hit.program != nullptr;
    };
    hooks.machine = [&] {
        return machines_.acquire(request.topo, request.cal);
    };
    hooks.store = [&](const std::shared_ptr<const CompiledProgram> &p) {
        cache_.insert(key, p);
    };

    CompileResult result =
        compileJob(request.circuit, request.options, pool_, hooks);
    result.tag = request.tag;
    result.day = request.day;
    result.seconds = secondsSince(start);
    return result;
}

BatchResult
CompileService::compileBatch(std::vector<CompileRequest> requests)
{
    const auto start = std::chrono::steady_clock::now();

    std::vector<std::future<CompileResult>> futures;
    futures.reserve(requests.size());
    for (CompileRequest &request : requests)
        futures.push_back(submit(std::move(request)));

    BatchResult batch;
    batch.results.reserve(futures.size());
    for (std::future<CompileResult> &f : futures)
        batch.results.push_back(f.get());

    batch.report = makeReport(batch.results, secondsSince(start));
    return batch;
}

std::vector<CompileRequest>
CompileService::dailyBatch(
    const CalibrationModel &model,
    const std::vector<std::pair<std::string, Circuit>> &programs,
    int firstDay, int numDays, const CompilerOptions &options)
{
    QC_ASSERT(numDays >= 0, "negative day count");
    std::vector<CompileRequest> requests;
    requests.reserve(programs.size() *
                     static_cast<std::size_t>(numDays));
    for (int day = firstDay; day < firstDay + numDays; ++day) {
        Calibration cal = model.forDay(day);
        for (const auto &[name, circuit] : programs) {
            CompileRequest req;
            req.tag = name + "@d" + std::to_string(day);
            req.day = day;
            req.circuit = circuit;
            req.topo = model.topology();
            req.cal = cal;
            req.options = options;
            requests.push_back(std::move(req));
        }
    }
    return requests;
}

ServiceReport
CompileService::makeReport(const std::vector<CompileResult> &results,
                           double wall_seconds) const
{
    ServiceReport report;
    report.jobs = static_cast<int>(results.size());

    auto stage_slot = [&report](const std::string &label)
        -> StageSummary & {
        for (StageSummary &s : report.stages)
            if (s.stage == label)
                return s;
        report.stages.push_back({label, 0, 0.0, 0});
        return report.stages.back();
    };

    // Win counts indexed by MapperKind so the final list comes out in
    // kAllMapperKinds order regardless of which jobs won what first.
    constexpr std::size_t n_kinds = std::size(kAllMapperKinds);
    std::array<int, n_kinds> wins{};

    for (const CompileResult &r : results) {
        if (r.ok)
            ++report.succeeded;
        else
            ++report.failed;
        if (r.ok && !r.status.ok())
            ++report.degraded;
        if (r.cacheHit)
            ++report.cacheHits;
        report.jobSeconds += r.seconds;

        if (!r.portfolio.empty()) {
            // The winner's traces live in r.stageTraces *and* in its
            // candidate entry; aggregate candidates only, so every
            // raced stage counts exactly once.
            ++report.portfolioJobs;
            for (const PortfolioCandidate &c : r.portfolio) {
                if (c.cancelled)
                    ++report.portfolioCancelled;
                if (c.winner)
                    ++wins[static_cast<std::size_t>(c.kind)];
                for (const StageTrace &t : c.stageTraces) {
                    StageSummary &s =
                        stage_slot(t.stage + "/" + t.pass);
                    ++s.runs;
                    s.seconds += t.seconds;
                }
            }
        } else {
            for (const StageTrace &t : r.stageTraces) {
                StageSummary &s = stage_slot(t.stage + "/" + t.pass);
                ++s.runs;
                s.seconds += t.seconds;
            }
        }
        if (!r.ok && !r.failedStage.empty()) {
            // The failing stage is the last trace recorded for the
            // job; attribute the failure to its stage/pass label.
            const std::string label =
                r.stageTraces.empty()
                    ? r.failedStage
                    : r.stageTraces.back().stage + "/" +
                          r.stageTraces.back().pass;
            ++stage_slot(label).failures;
        }
    }
    for (std::size_t i = 0; i < n_kinds; ++i)
        if (wins[i] > 0)
            report.portfolioWins.emplace_back(
                mapperKindName(kAllMapperKinds[i]), wins[i]);

    report.wallSeconds = wall_seconds;
    report.machinePool = machines_.stats();
    report.cache = cache_.stats();
    return report;
}

std::string
ServiceReport::toString() const
{
    std::ostringstream oss;
    oss << "jobs: " << jobs << " (" << succeeded << " ok, " << failed
        << " failed, " << cacheHits << " cache hits";
    if (degraded > 0)
        oss << ", " << degraded << " degraded";
    oss << ")\n";
    if (portfolioJobs > 0) {
        oss << "portfolio: " << portfolioJobs << " raced, "
            << portfolioCancelled << " candidates cancelled early";
        if (!portfolioWins.empty()) {
            oss << "; wins:";
            for (const auto &[name, count] : portfolioWins)
                oss << " " << name << "=" << count;
        }
        oss << "\n";
    }
    oss << "wall time: " << wallSeconds << " s (" << throughput()
        << " jobs/s; " << jobSeconds << " s of job time)\n"
        << "machine pool: " << machinePool.builds << " builds, "
        << machinePool.hits << " hits, " << machinePool.evictions
        << " evictions\n"
        << "compile cache: " << cache.hits << "/" << cache.lookups()
        << " hits (rate " << cache.hitRate() << "), "
        << cache.evictions << " evictions, " << cache.entries
        << " entries / " << cache.bytes << " bytes\n";
    if (!stages.empty()) {
        oss << "stage breakdown:\n";
        for (const StageSummary &s : stages) {
            oss << "  " << s.stage << ": " << s.seconds << " s over "
                << s.runs << " runs";
            if (s.failures > 0)
                oss << " (" << s.failures << " failed here)";
            oss << "\n";
        }
    }
    return oss.str();
}

} // namespace qc::service
