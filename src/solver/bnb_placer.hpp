/**
 * @file
 * Exact branch-and-bound optimizer for the placement subproblem of the
 * reliability objective (Eq. 12).
 *
 * Given the decomposition of the objective into per-qubit readout
 * terms and per-ordered-pair CNOT terms (with best-junction EC), the
 * placement problem is a quadratic assignment problem. This solver
 * explores placements depth-first with an admissible upper bound and
 * is used (a) to cross-validate the Z3 optimum in the test suite and
 * (b) as a fast exact placer in ablation benches.
 */

#ifndef QC_SOLVER_BNB_PLACER_HPP
#define QC_SOLVER_BNB_PLACER_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "ir/circuit.hpp"
#include "machine/machine.hpp"
#include "support/cancel.hpp"

namespace qc {

/** Branch-and-bound controls. */
struct BnbOptions
{
    double readoutWeight = 0.5; ///< Eq. 12's omega
    std::int64_t nodeLimit = 50'000'000; ///< search-node safety cap

    /**
     * A subtree is pruned when its value plus bound is at most the
     * incumbent plus this margin. The default also prunes near-ties,
     * and R-SMT*'s warm start keeps the layout it finds that way. The
     * portfolio's one-bend-path bound (core/portfolio.hpp) passes
     * minus a proven rounding slack instead, so that no layout within
     * rounding of the best is pruned.
     */
    double pruneMargin = 1e-12;

    /**
     * Called with every complete layout (indexed by program qubit)
     * that the margin does not prune; null calls nothing. The
     * one-bend-path bound re-scores each one exactly.
     */
    std::function<void(const std::vector<HwQubit> &)> visitLeaf;

    /**
     * The caller's budget, polled every 1,024 nodes: the search stops
     * as at the node cap once the deadline passes or the token fires.
     * R-SMT*'s warm start passes its solver deadline and cancel token.
     */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    const CancelToken *cancel = nullptr;
};

/** Result of a branch-and-bound solve. */
struct BnbResult
{
    std::vector<HwQubit> layout; ///< program qubit -> hardware qubit
    double objective = 0.0;      ///< Eq. 12 value of the layout
    std::int64_t nodesExplored = 0;
    bool optimal = false; ///< false iff the node cap or budget tripped
};

/**
 * Exact placement search.
 *
 * Maximizes w * sum(readout log) + (1-w) * sum(CNOT log EC_best) over
 * injective placements. Qubits are branched in a connectivity-aware
 * order; candidate locations are tried in decreasing immediate-gain
 * order; subtrees are pruned with an admissible bound combining the
 * best free readout location per unplaced qubit and the best feasible
 * EC per undetermined CNOT pair.
 */
class BnbPlacer
{
  public:
    BnbPlacer(const Machine &machine, const Circuit &prog,
              BnbOptions options = {});

    BnbResult solve();

  private:
    /** One ordered CNOT term of the decomposed objective. */
    struct Term
    {
        ProgQubit control;
        ProgQubit target;
        int weight;
    };

    double readoutGain(ProgQubit q, HwQubit h) const;
    double edgeGain(HwQubit hc, HwQubit ht) const;

    const Machine &machine_;
    const Circuit &prog_;
    BnbOptions options_;

    int numProg_;
    int numHw_;
    std::vector<int> readouts_;           ///< per program qubit
    std::vector<std::vector<double>> logEc_; ///< best-junction log EC
    std::vector<double> logRo_;           ///< per hw qubit log readout

    // Branching order and per-level adjacency to earlier levels.
    std::vector<ProgQubit> order_;
    struct LevelEdge { int earlierLevel; int weight; bool asControl; };
    std::vector<std::vector<LevelEdge>> levelEdges_;
    std::vector<Term> terms_; ///< ordered CNOT objective terms

    // Search state.
    std::vector<HwQubit> assign_;
    std::vector<bool> used_;
    std::vector<HwQubit> best_;
    double bestObj_ = 0.0;
    std::int64_t nodes_ = 0;
    bool hitLimit_ = false;

    void dfs(int level, double value);
    double bound(int level) const;
};

} // namespace qc

#endif // QC_SOLVER_BNB_PLACER_HPP
