/**
 * @file
 * Portfolio racing: compile one job with N candidate mapper bundles,
 * cancel provable losers early, return the best predicted-success
 * candidate — deterministically.
 *
 * The paper's Table 2 shows that which mapping policy wins swings
 * per program and per calibration day; instead of making the user
 * guess, PortfolioPass races every enabled MapperKind bundle over the
 * same circuit and machine snapshot and keeps the one with the best
 * predicted success probability.
 *
 * Determinism is the design center. The winner must not depend on
 * thread timing, so:
 *
 *  - Eligibility is timing-free: a candidate can win iff it produced
 *    a program with an ok status and a deterministic solve
 *    (solverOptimal — timeout-truncated SMT incumbents depend on
 *    wall-clock luck and are excluded; so are degraded fallbacks and
 *    cancelled runs, which produce no program at all).
 *  - Selection happens after the race over the full candidate array:
 *    max predicted success, ties broken by the tie rank below.
 *  - Early cancellation only kills *provable* losers. A completed
 *    eligible candidate i with predicted success p cancels an
 *    unfinished candidate j only when p > ub_j, or when p == ub_j and
 *    i outranks j in the tie rank (j can at best tie and then loses
 *    the tie anyway). ub_j is candidate j's own upper bound: U
 *    (below) for the bundles whose routes all come from the
 *    machine's one-bend route set — Qiskit, T-SMT, T-SMT*
 *    and R-SMT* — and circuitSuccessUpperBound for the rest: GreedyV*
 *    and GreedyE* route along Dijkstra paths, which can beat every
 *    one-bend route, and GreedyE*+track and Sabre route live.
 *  - The tie rank is bundle order, except that R-SMT* ranks ahead of
 *    T-SMT and T-SMT* (tieRank). R-SMT* maximizes f, the very score
 *    U bounds, so where it reaches U it cancels the two duration
 *    solvers, which could at best tie it.
 *
 * The one-bend-path bound U. For a layout L let
 *
 *     f(L) = exp( sum over program gates, in program order, of
 *                 log bestReliabilityPath(L[c], L[t]).reliability
 *                     for a CNOT(c, t),
 *                 log readoutReliability(L[q]) for a measure of q )
 *
 * — R-SMT*'s own prediction formula — and U = max over injective L of
 * f(L), computed in floating point exactly as written. U bounds every
 * prediction p_j of a one-bend bundle j; four points make that sound:
 *
 *  1. p_j <= f(L_j) for j's layout L_j, term by term in the same
 *     summation order. The list scheduler's prediction is the same
 *     program-order log sum, with each CNOT term the log reliability
 *     of the route chooseRoute returns. For every one-bend route
 *     source that route is one of the pair's (one or two) one-bend
 *     routes, and bestReliabilityPath is the most reliable of them:
 *     fixed junctions (Qiskit's row-first routes, the SMT solvers'
 *     junction variables, clamped to the routes that exist),
 *     BestDuration under both the 1BP and the RR policy (T-SMT and
 *     T-SMT*, and their trivial-layout fallback) and BestReliability
 *     (R-SMT* without junctions). Measure terms are identical. A
 *     smaller reliability has a no larger log, round-to-nearest
 *     addition is monotone in each operand, and exp is monotone, so
 *     the inequality survives rounding.
 *  2. U is a maximum over all layouts, not a property of any solver.
 *     R-SMT*'s escape from joint scheduling beyond 12 CNOTs, its
 *     location encoding on non-grid topologies, its integer-scaled
 *     logs and a readout weight other than 0.5 change only which
 *     layout it returns, and so how often it reaches U — never
 *     whether U bounds it. The same holds for a solve cut short by
 *     its deadline.
 *  3. The maximum is found with BnbPlacer at omega = 0.5, whose
 *     objective is f's log sum halved, regrouped by qubit pair and
 *     summed in another order. Every term is non-positive, so each
 *     of those sums, and f's, is within gamma_N * A of its exact
 *     value, where A sums, over the program's CNOTs and measures, the
 *     largest magnitude the gate's log term can take, and N = gates
 *     + qubits (Higham, Accuracy and Stability of Numerical
 *     Algorithms, 2002, sec. 4.2). The search therefore prunes a
 *     subtree only when its bound falls below the incumbent by more
 *     than 4 * N * DBL_EPSILON * A, which exceeds all of those
 *     rounding errors together (the subtree's bound, the incumbent's
 *     value, f on both layouts, and the comparison itself): no
 *     layout pruned that way can have an f at least the incumbent's.
 *     Every layout that survives is re-evaluated with f exactly as
 *     written and the largest value is U. (BnbPlacer's default rule,
 *     which also prunes within 1e-12 of the incumbent, stays R-SMT*'s
 *     warm start.) Taking the incumbent's own f would not do: on the
 *     2x8 grid's BV6 and HS6 and heavy-hex d=3's Toffoli and Or, the
 *     maximum of f sits 1–2 ulp above both BnbPlacer's layout and
 *     R-SMT*'s prediction.
 *  4. When the search trips its node cap, or the program does not
 *     fit the machine, U falls back to circuitSuccessUpperBound,
 *     which bounds every bundle.
 *
 * Winner verification (below) may demote a winner and re-select; the
 * runner-up it then picks is the best candidate that was not
 * cancelled, which need not be the one a race without cancellation
 * would pick. That was already so under the global bound, and only a
 * verifier rejection, itself a compiler bug, gets there.
 *
 * Execution is pluggable so this layer stays free of the service's
 * ThreadPool: a PortfolioExecutor runs the candidate closures, the
 * built-in SerialPortfolioExecutor runs them in launch order on the
 * calling thread (the bit-identity oracle), and the service provides
 * a pool-backed one (service/portfolio_executor.hpp) with a
 * help-while-wait worker budget. Launch order puts the cheap
 * heuristic bundles before the SMT bundles, and R-SMT* first among
 * those, so early completions can cancel expensive solves, and
 * PortfolioOptions::deadlineMs caps each SMT candidate's solver
 * budget identically in serial and parallel runs.
 */

#ifndef QC_CORE_PORTFOLIO_HPP
#define QC_CORE_PORTFOLIO_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "support/cancel.hpp"

namespace qc {

/**
 * Version of PortfolioPass::tieRank. The rank picks the winner among
 * equal predictions, so it is mixed into every portfolio cache key
 * (service::fingerprintOptions): a cache written under another rank
 * must not serve that rank's tie winners. Version 1 was plain bundle
 * order.
 */
inline constexpr int kPortfolioTieRankVersion = 2;

/** One raced bundle's outcome, win or lose. */
struct PortfolioCandidate
{
    MapperKind kind = MapperKind::Qiskit;
    std::string name;           ///< mapperKindName(kind)
    CompileStatus status;
    std::string failedStage;    ///< empty when ok
    bool hasProgram = false;
    bool eligible = false;      ///< could this candidate win?
    bool winner = false;
    bool cancelled = false;     ///< status.code == Cancelled
    bool verifyRejected = false; ///< won selection, failed validation
    double predictedSuccess = 0.0; ///< valid iff hasProgram
    Timeslot duration = 0;         ///< valid iff hasProgram
    int swapCount = 0;             ///< valid iff hasProgram
    double seconds = 0.0;          ///< candidate wall-clock
    double upperBound = 0.0;  ///< the bound the race held it to
    std::string cancelReason; ///< e.g. "outpaced by R-SMT*"; if cancelled
    std::vector<StageTrace> stageTraces;
};

/** Outcome of one portfolio race. */
struct PortfolioResult
{
    /**
     * The winning candidate's pipeline result. When no candidate was
     * eligible, the best degraded program (same comparator) or — with
     * no program anywhere — the first candidate's failure, so callers
     * see the same ok/degraded/failed contract as a single bundle.
     */
    PipelineResult best;

    int winnerIndex = -1; ///< into candidates; -1 = nothing usable
    std::vector<PortfolioCandidate> candidates;

    int launchedCount = 0;  ///< candidates whose pipeline actually ran
    int cancelledCount = 0; ///< cancelled (incl. skipped before start)

    /**
     * Would-be winners the translation validator rejected before
     * selection committed (each demoted deterministically, the next
     * best candidate re-selected in bundle order).
     */
    int verifyRejectedCount = 0;

    /** circuitSuccessUpperBound for this race. */
    double upperBound = 0.0;

    /**
     * U, the one-bend-path bound, when the race includes an SMT
     * bundle (the only candidates worth stopping early); otherwise,
     * or when U fell back, upperBound.
     */
    double oneBendBound = 0.0;

    bool ok() const { return best.ok(); }
};

/**
 * Runs the candidate closures to completion. Implementations may run
 * them concurrently but must not return before every closure has
 * finished. Closures are self-contained and never enqueue more work.
 */
class PortfolioExecutor
{
  public:
    virtual ~PortfolioExecutor() = default;
    virtual void runAll(std::vector<std::function<void()>> tasks) = 0;
};

/** In-order execution on the calling thread (bit-identity oracle). */
class SerialPortfolioExecutor final : public PortfolioExecutor
{
  public:
    void runAll(std::vector<std::function<void()>> tasks) override;
};

/**
 * An upper bound on the predicted success probability any mapping of
 * `prog` on `machine` can report: every CNOT at the machine's best
 * edge reliability, every measurement at its best readout
 * reliability, zero SWAPs — accumulated exp(sum-of-logs) in program
 * order, the same form both prediction models use, so no real
 * mapping's prediction exceeds it.
 */
double circuitSuccessUpperBound(const Machine &machine,
                                const Circuit &prog);

/**
 * U: the maximum over injective layouts of f, R-SMT*'s prediction
 * formula (see the file comment), bit for bit as f computes it; or
 * circuitSuccessUpperBound when the search trips its node cap or the
 * program does not fit the machine. No prediction of a bundle that
 * routes on the machine's one-bend routes exceeds it.
 */
double oneBendPathSuccessBound(const Machine &machine,
                               const Circuit &prog);

/**
 * Parse a comma-separated bundle list ("greedye,sabre,rsmt*") with
 * mapperKindFromName's lenient matching. Throws FatalError on an
 * unknown name, a duplicate kind, or an empty list.
 */
std::vector<MapperKind> parsePortfolioBundles(const std::string &text);

/**
 * The racing engine. Construction prebuilds one standardPipeline per
 * enabled bundle (options.portfolio decides the list; options.mapper
 * is ignored); run() races them and selects deterministically.
 * Thread-safe for concurrent run() calls, like Pipeline.
 */
class PortfolioPass
{
  public:
    PortfolioPass(std::shared_ptr<const Machine> machine,
                  CompilerOptions options);

    /**
     * Race every bundle over `prog`.
     *
     * @param executor null = SerialPortfolioExecutor
     * @param cancel   cancels the whole race (all candidates)
     */
    PortfolioResult run(const Circuit &prog,
                        PortfolioExecutor *executor = nullptr,
                        const CancelToken *cancel = nullptr) const;

    const std::vector<MapperKind> &bundles() const { return bundles_; }

    /**
     * Candidate indices in launch order: cheap heuristics first, then
     * R-SMT*, then T-SMT and T-SMT*, stable within each class.
     */
    static std::vector<size_t> launchOrder(
        const std::vector<MapperKind> &bundles);

    /**
     * Each candidate's tie rank (0 wins ties first): bundle order,
     * except that R-SMT* moves just ahead of the first T-SMT or
     * T-SMT* that precedes it.
     */
    static std::vector<size_t> tieRank(
        const std::vector<MapperKind> &bundles);

  private:
    std::shared_ptr<const Machine> machine_;
    CompilerOptions options_;
    std::vector<MapperKind> bundles_;
    std::vector<Pipeline> pipelines_; ///< one per bundle
    std::vector<size_t> tieRank_;     ///< tieRank(bundles_)
};

} // namespace qc

#endif // QC_CORE_PORTFOLIO_HPP
