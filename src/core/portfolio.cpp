#include "portfolio.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <sstream>

#include "solver/bnb_placer.hpp"
#include "support/logging.hpp"

namespace qc {

namespace {

/** Bundles backed by a Z3 solve (expensive, deadline-capped). */
bool
isSmtKind(MapperKind k)
{
    return k == MapperKind::TSmt || k == MapperKind::TSmtStar ||
           k == MapperKind::RSmtStar;
}

/**
 * Node cap of the one-bend-path bound's search: 15x the largest
 * Table 2 search (about 13,000 nodes, BV8 and HS6) and a tenth of
 * R-SMT*'s warm-start cap, so that a program past it falls back to
 * the global bound for at most a tenth of what R-SMT*'s own search
 * may spend (about 2 s on an 8x8 grid).
 */
constexpr std::int64_t kOneBendBoundNodeLimit = 200'000;

/** T-SMT and T-SMT*: the duration solvers R-SMT* outranks on ties. */
bool
isDurationSmtKind(MapperKind k)
{
    return k == MapperKind::TSmt || k == MapperKind::TSmtStar;
}

/**
 * Bundles whose standardPipeline routes every CNOT on one of the
 * machine's one-bend routes, so that oneBendPathSuccessBound bounds
 * their prediction (point 1 in portfolio.hpp).
 */
bool
routesOnOneBendPaths(MapperKind k)
{
    return k == MapperKind::Qiskit || isSmtKind(k);
}

} // namespace

void
SerialPortfolioExecutor::runAll(std::vector<std::function<void()>> tasks)
{
    for (auto &task : tasks)
        task();
}

double
circuitSuccessUpperBound(const Machine &machine, const Circuit &prog)
{
    const auto &topo = machine.topo();
    const auto &cal = machine.cal();

    double best_cnot = 1.0;
    if (topo.numEdges() > 0) {
        best_cnot = 0.0;
        for (int e = 0; e < topo.numEdges(); ++e)
            best_cnot = std::max(best_cnot, cal.cnotReliability(e));
    }
    double best_readout = 1.0;
    if (topo.numQubits() > 0) {
        best_readout = 0.0;
        for (HwQubit h = 0; h < topo.numQubits(); ++h)
            best_readout =
                std::max(best_readout, cal.readoutReliability(h));
    }

    // Same accumulation form and order as both prediction models —
    // exp of a program-order log sum — with every per-gate term
    // replaced by its best-case value (best edge, best readout, zero
    // SWAPs, 1q gates free like the models treat them). Term-by-term
    // domination plus the monotonicity of float addition make this a
    // bound that survives rounding, so comparing a candidate's
    // prediction against it (including for exact equality) is sound.
    double log_ub = 0.0;
    for (size_t i = 0; i < prog.size(); ++i) {
        const Gate &g = prog.gate(i);
        if (g.op == Op::CNOT)
            log_ub += std::log(best_cnot);
        else if (g.isMeasure())
            log_ub += std::log(best_readout);
    }
    return std::exp(log_ub);
}

double
oneBendPathSuccessBound(const Machine &machine, const Circuit &prog)
{
    const int n_prog = prog.numQubits();
    if (n_prog == 0 || n_prog > machine.numQubits())
        return circuitSuccessUpperBound(machine, prog);

    // f's log sum, term for term as predictLogReliability forms it.
    auto logF = [&](const std::vector<HwQubit> &layout) {
        double log_f = 0.0;
        for (size_t i = 0; i < prog.size(); ++i) {
            const Gate &g = prog.gate(i);
            if (g.op == Op::CNOT)
                log_f += std::log(
                    machine
                        .bestReliabilityPath(layout[g.q0], layout[g.q1])
                        .reliability);
            else if (g.isMeasure())
                log_f += std::log(
                    machine.cal().readoutReliability(layout[g.q0]));
        }
        return log_f;
    };

    // A: the largest magnitude each gate's log term can take, summed
    // (point 3 in portfolio.hpp).
    const int n_hw = machine.numQubits();
    double worst_cnot = 0.0;
    double worst_readout = 0.0;
    for (HwQubit a = 0; a < n_hw; ++a) {
        worst_readout = std::max(
            worst_readout,
            -std::log(machine.cal().readoutReliability(a)));
        for (HwQubit b = 0; b < n_hw; ++b)
            if (a != b)
                worst_cnot = std::max(
                    worst_cnot,
                    -std::log(machine.bestPathReliability(a, b)));
    }
    double magnitude = 0.0;
    for (const Gate &g : prog.gates()) {
        if (g.op == Op::CNOT)
            magnitude += worst_cnot;
        else if (g.isMeasure())
            magnitude += worst_readout;
    }
    const double terms = static_cast<double>(prog.size() + n_prog);

    double best_log_f = -std::numeric_limits<double>::infinity();
    BnbOptions options;
    options.readoutWeight = 0.5;
    options.nodeLimit = kOneBendBoundNodeLimit;
    options.pruneMargin = -4.0 * terms * DBL_EPSILON * magnitude;
    options.visitLeaf = [&](const std::vector<HwQubit> &layout) {
        best_log_f = std::max(best_log_f, logF(layout));
    };
    if (!BnbPlacer(machine, prog, options).solve().optimal)
        return circuitSuccessUpperBound(machine, prog);
    return std::exp(best_log_f);
}

std::vector<MapperKind>
parsePortfolioBundles(const std::string &text)
{
    std::vector<MapperKind> out;
    std::stringstream ss(text);
    std::string token;
    while (std::getline(ss, token, ',')) {
        const auto first = token.find_first_not_of(" \t");
        const auto last = token.find_last_not_of(" \t");
        if (first == std::string::npos)
            QC_FATAL("empty bundle name in portfolio list '", text,
                     "'");
        token = token.substr(first, last - first + 1);
        const MapperKind k = mapperKindFromName(token);
        for (MapperKind seen : out)
            if (seen == k)
                QC_FATAL("duplicate bundle '", mapperKindName(k),
                         "' in portfolio list '", text, "'");
        out.push_back(k);
    }
    if (out.empty())
        QC_FATAL("portfolio list '", text,
                 "' names no bundles (expected e.g. "
                 "'greedye,sabre,rsmt*')");
    return out;
}

std::vector<size_t>
PortfolioPass::launchOrder(const std::vector<MapperKind> &bundles)
{
    // Heuristics, then R-SMT* (its optimum is what cancels the
    // duration solvers), then T-SMT and T-SMT*.
    auto launchClass = [&bundles](size_t i) {
        return !isSmtKind(bundles[i])                 ? 0
               : bundles[i] == MapperKind::RSmtStar ? 1
                                                      : 2;
    };
    std::vector<size_t> order(bundles.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&launchClass](size_t a, size_t b) {
                         return launchClass(a) < launchClass(b);
                     });
    return order;
}

std::vector<size_t>
PortfolioPass::tieRank(const std::vector<MapperKind> &bundles)
{
    // Bundle order, with R-SMT* rotated to just ahead of the first
    // duration solver before it.
    std::vector<size_t> order(bundles.size());
    std::iota(order.begin(), order.end(), size_t{0});
    const auto rsmt =
        std::find(bundles.begin(), bundles.end(), MapperKind::RSmtStar) -
        bundles.begin();
    const auto first_duration =
        std::find_if(bundles.begin(), bundles.end(), isDurationSmtKind) -
        bundles.begin();
    if (rsmt != static_cast<std::ptrdiff_t>(bundles.size()) &&
        first_duration < rsmt)
        std::rotate(order.begin() + first_duration, order.begin() + rsmt,
                    order.begin() + rsmt + 1);
    std::vector<size_t> rank(bundles.size());
    for (size_t r = 0; r < order.size(); ++r)
        rank[order[r]] = r;
    return rank;
}

PortfolioPass::PortfolioPass(std::shared_ptr<const Machine> machine,
                             CompilerOptions options)
    : machine_(std::move(machine)), options_(options),
      bundles_(resolvedPortfolioBundles(options.portfolio)),
      tieRank_(tieRank(bundles_))
{
    QC_ASSERT(machine_ != nullptr, "portfolio needs a machine snapshot");
    QC_ASSERT(!bundles_.empty(), "portfolio needs at least one bundle");

    const unsigned deadline = options_.portfolio.deadlineMs;
    pipelines_.reserve(bundles_.size());
    for (MapperKind kind : bundles_) {
        CompilerOptions candidate = options_;
        candidate.mapper = kind;
        // Candidates are plain single bundles; a nested portfolio
        // would recurse forever.
        candidate.portfolio = PortfolioOptions{};
        // The deadline is enforced through the solver's own budget so
        // serial and pooled races see identical SMT semantics.
        if (isSmtKind(kind) && deadline > 0)
            candidate.smtTimeoutMs =
                std::min(candidate.smtTimeoutMs, deadline);
        pipelines_.push_back(standardPipeline(machine_, candidate));
    }
}

PortfolioResult
PortfolioPass::run(const Circuit &prog, PortfolioExecutor *executor,
                   const CancelToken *cancel) const
{
    const size_t n = bundles_.size();

    PortfolioResult out;
    out.upperBound = circuitSuccessUpperBound(*machine_, prog);
    out.oneBendBound =
        std::any_of(bundles_.begin(), bundles_.end(), isSmtKind)
            ? oneBendPathSuccessBound(*machine_, prog)
            : out.upperBound;
    std::vector<double> bounds(n);
    for (size_t j = 0; j < n; ++j)
        bounds[j] = routesOnOneBendPaths(bundles_[j]) ? out.oneBendBound
                                                      : out.upperBound;

    struct Slot
    {
        PipelineResult result;
        CancelToken token;
        bool done = false; ///< guarded by mu until runAll returns
        bool ran = false;  ///< pipeline executed (not skipped)
    };
    std::vector<Slot> slots(n);
    std::mutex mu;

    // Cancelling the race cancels every candidate (the guard also
    // fires immediately when `cancel` is already tripped).
    CancelCallbackGuard fanout(cancel, [&slots] {
        for (Slot &s : slots)
            s.token.requestCancel("portfolio cancelled");
    });

    auto isEligible = [](const PipelineResult &r) {
        return r.hasProgram && r.status.ok() && r.program.solverOptimal;
    };

    // Sound early cancellation: a completed eligible candidate i with
    // prediction p provably beats an unfinished j when p > ub_j (j
    // cannot predict above its bound), or when p == ub_j and i
    // outranks j in the tie rank (j can at best tie, then loses the
    // tie). Cancelled candidates therefore never change the selected
    // winner — timing decides how much work the losers burn, never
    // who wins.
    auto noteCompletion = [&](size_t i) {
        std::lock_guard<std::mutex> lock(mu);
        slots[i].done = true;
        const PipelineResult &r = slots[i].result;
        if (!isEligible(r))
            return;
        const double p = r.program.predictedSuccess;
        for (size_t j = 0; j < n; ++j) {
            if (j == i || slots[j].done)
                continue;
            const bool beats =
                p > bounds[j] ||
                (p == bounds[j] && tieRank_[i] < tieRank_[j]);
            if (beats)
                slots[j].token.requestCancel(
                    std::string("outpaced by ") +
                    mapperKindName(bundles_[i]));
        }
    };

    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t idx : launchOrder(bundles_)) {
        tasks.push_back([this, &prog, &slots, &noteCompletion, idx] {
            Slot &s = slots[idx];
            if (s.token.cancelled()) {
                // Skipped before starting — the serial-mode face of
                // early cancellation.
                s.result.status = CompileStatus::cancelled(
                    "cancelled before start: " + s.token.reason());
                s.result.failedStage = "portfolio";
                s.result.program.mapperName =
                    mapperKindName(bundles_[idx]);
                s.result.program.programName = prog.name();
                noteCompletion(idx);
                return;
            }
            s.ran = true;
            s.result = pipelines_[idx].run(prog, &s.token);
            noteCompletion(idx);
        });
    }

    SerialPortfolioExecutor serial;
    PortfolioExecutor &exec =
        executor != nullptr ? *executor
                            : static_cast<PortfolioExecutor &>(serial);
    exec.runAll(std::move(tasks));

    // Selection over the full array, after the race: thread timing
    // cannot change the outcome because ineligible candidates never
    // win and cancellation only killed provable losers.
    auto better = [&](size_t i, size_t j) {
        const CompiledProgram &a = slots[i].result.program;
        const CompiledProgram &b = slots[j].result.program;
        if (a.predictedSuccess != b.predictedSuccess)
            return a.predictedSuccess > b.predictedSuccess;
        return tieRank_[i] < tieRank_[j];
    };

    int chosen = -1;
    auto selectEligible = [&] {
        chosen = -1;
        for (size_t i = 0; i < n; ++i) {
            if (!isEligible(slots[i].result))
                continue;
            if (chosen < 0 ||
                better(i, static_cast<size_t>(chosen)))
                chosen = static_cast<int>(i);
        }
    };
    selectEligible();

    // Winner verification: selection only commits to a program the
    // translation validator accepts. When the candidate's pipeline
    // already verified inline (Debug builds, QC_VERIFY, --verify) a
    // failure made it ineligible above; otherwise verify the winner
    // here, demote it on rejection, and re-select — deterministic,
    // since verification and bundle-order selection both are.
    std::vector<char> verifyRejected(n, 0);
    while (chosen >= 0 &&
           !pipelines_[static_cast<size_t>(chosen)].verifies()) {
        PipelineResult &r = slots[static_cast<size_t>(chosen)].result;
        VerifyOptions vopts;
        vopts.expectRestoredLayout =
            !pipelines_[static_cast<size_t>(chosen)].routesLive();
        const VerifyReport report =
            ProgramVerifier(*machine_, vopts).verify(prog, r.program);
        if (report.ok())
            break;
        r.status = CompileStatus::verifyFailed(report.toString());
        r.failedStage = "verification";
        verifyRejected[static_cast<size_t>(chosen)] = 1;
        ++out.verifyRejectedCount;
        selectEligible();
    }

    if (chosen < 0) {
        // No eligible candidate: keep the single-bundle degraded
        // contract and return the best program produced at all.
        for (size_t i = 0; i < n; ++i) {
            if (!slots[i].result.hasProgram)
                continue;
            if (chosen < 0 || better(i, static_cast<size_t>(chosen)))
                chosen = static_cast<int>(i);
        }
    }

    out.candidates.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const Slot &s = slots[i];
        PortfolioCandidate &c = out.candidates[i];
        c.kind = bundles_[i];
        c.name = mapperKindName(bundles_[i]);
        c.status = s.result.status;
        c.failedStage = s.result.failedStage;
        c.hasProgram = s.result.hasProgram;
        c.eligible = isEligible(s.result);
        c.cancelled =
            s.result.status.code == CompileStatusCode::Cancelled;
        c.verifyRejected = verifyRejected[i] != 0;
        if (s.result.hasProgram) {
            c.predictedSuccess = s.result.program.predictedSuccess;
            c.duration = s.result.program.duration;
            c.swapCount = s.result.program.swapCount;
        }
        c.seconds = s.result.program.compileSeconds;
        c.upperBound = bounds[i];
        if (c.cancelled)
            c.cancelReason = s.token.reason();
        c.stageTraces = s.result.program.stageTraces;
        if (s.ran)
            ++out.launchedCount;
        if (c.cancelled)
            ++out.cancelledCount;
    }

    if (chosen >= 0) {
        out.winnerIndex = chosen;
        out.candidates[chosen].winner = true;
        out.best = std::move(slots[chosen].result);
    } else {
        // Nothing produced a program anywhere; surface the first
        // candidate's failure (bundle order, deterministic).
        out.best = std::move(slots[0].result);
    }
    return out;
}

} // namespace qc
