#include "sabre_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

#include "mappers/greedy_mapper.hpp"
#include "mappers/qiskit_baseline.hpp"
#include "sched/tracking_router.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace qc {

namespace {

/** A program CNOT reduced to its qubit pair. */
struct CnotPair
{
    ProgQubit a;
    ProgQubit b;
};

/** The circuit's CNOTs in program order (forward direction). */
std::vector<CnotPair>
cnotSequence(const Circuit &prog)
{
    std::vector<CnotPair> out;
    out.reserve(prog.size());
    for (const Gate &g : prog.gates())
        if (g.op == Op::CNOT)
            out.push_back({g.q0, g.q1});
    return out;
}

/**
 * One SABRE routing pass over a CNOT sequence.
 *
 * Maintains a live layout (the SWAPs are committed, never undone, the
 * tracking router's movement model) and advances the qubit-level
 * dependency frontier: a CNOT is in the front layer iff it is the
 * next pending CNOT on both of its qubits — exactly the two-qubit
 * slice of the DependencyDag frontier, since single-qubit gates never
 * constrain routing. When no front gate is executable, every coupling
 * edge touching a front gate's qubits is scored and the best exchange
 * is committed.
 *
 * Only the *final layout* is of interest here (it seeds the next
 * refinement direction); the emitted movement itself is discarded —
 * the downstream scheduling pass re-routes from the chosen initial
 * layout.
 *
 * A SWAP step costs a fraction of rescoring every term. Each edge's
 * -log reliability and the lookahead decay weights with their running
 * sums are tabulated once per compile; the front layer and lookahead
 * window change only when a gate retires. Each step snapshots the
 * front and window gates' endpoints, and a candidate exchange then
 * re-measures only the gates with an endpoint on the swapped pair:
 * the front sum is kept in integers (exact, so equal to summing the
 * hop counts as doubles in any order), and the window sum resumes
 * from its running value just before the first touched gate. Every
 * score is therefore bit-identical to summing all terms afresh in
 * window order, and so are the tie sets and tie-break draws.
 */
class SabreRoutePass
{
  public:
    SabreRoutePass(const Machine &machine, const SabreOptions &options,
                   Rng &rng, size_t num_cnots);

    std::vector<HwQubit> run(const std::vector<CnotPair> &cnots,
                             std::vector<HwQubit> layout);

  private:
    /** A front gate's endpoints and their hop distance. */
    struct FrontGate
    {
        HwQubit a;
        HwQubit b;
        int distance;
    };

    /** A window gate's endpoints, its decayed term and the sum before it. */
    struct WindowGate
    {
        HwQubit a;
        HwQubit b;
        double term;
        double sumBefore;
    };

    /** CNOT indices per qubit, with a per-qubit progress pointer. */
    void buildQueues(const std::vector<CnotPair> &cnots, int n_prog);

    /** Front layer: next pending CNOT on *both* of its qubits. */
    void collectFront(const std::vector<CnotPair> &cnots);

    /** Retire gate g: advance both endpoint pointers past it. */
    void retire(int g, const std::vector<CnotPair> &cnots);

    /**
     * First `options_.lookahead` pending CNOTs beyond the front
     * layer, in program order.
     */
    void collectWindow(const std::vector<CnotPair> &cnots);

    /** Record the front and window gates' current endpoints. */
    void snapshot(const std::vector<CnotPair> &cnots,
                  const std::vector<HwQubit> &layout);

    /** Coupling edges touching a front gate, in (a, b) order. */
    void collectCandidates();

    double scoreSwap(EdgeId e);

    void applySwap(HwQubit u, HwQubit v, std::vector<HwQubit> &layout);

    const Machine &machine_;
    const Topology &topo_;
    const SabreOptions &options_;
    Rng &rng_;

    // Per compile.
    std::vector<double> edgeCost_;  ///< -log reliability per EdgeId
    std::vector<double> weight_;    ///< decay weight of window rank i
    std::vector<double> weightSum_; ///< sum of the first k weights
    std::vector<EdgeId> rankedEdges_;  ///< edges in (a, b) order
    std::vector<std::vector<int>> edgeRanks_; ///< per qubit: its ranks

    // Per pass.
    std::vector<std::vector<int>> qubitCnots_;
    std::vector<size_t> ptr_;
    std::vector<bool> done_;
    std::vector<ProgQubit> occupant_;
    int firstPending_ = 0;
    std::vector<int> front_;
    std::vector<int> window_;

    // Per SWAP step.
    std::vector<FrontGate> frontGates_;
    int frontSum_ = 0;
    std::vector<int> frontAt_; ///< per qubit: front gate there, or -1
    std::vector<WindowGate> windowGates_;
    double windowSum_ = 0.0;
    std::vector<std::vector<int>> windowAt_; ///< per qubit: window gates
    std::vector<double> windowTerms_; ///< a candidate's window terms
    std::vector<std::uint64_t> candidateBits_;
    std::vector<EdgeId> candidates_;
    std::vector<size_t> best_;
};

SabreRoutePass::SabreRoutePass(const Machine &machine,
                               const SabreOptions &options, Rng &rng,
                               size_t num_cnots)
    : machine_(machine), topo_(machine.topo()), options_(options),
      rng_(rng)
{
    for (EdgeId e = 0; e < topo_.numEdges(); ++e) {
        edgeCost_.push_back(-std::log(machine_.cal().cnotReliability(e)));
        rankedEdges_.push_back(e);
    }
    std::sort(rankedEdges_.begin(), rankedEdges_.end(),
              [&](EdgeId x, EdgeId y) {
                  const CouplingEdge &ex = topo_.edge(x);
                  const CouplingEdge &ey = topo_.edge(y);
                  return std::make_pair(ex.a, ex.b) <
                         std::make_pair(ey.a, ey.b);
              });
    edgeRanks_.assign(topo_.numQubits(), {});
    for (size_t r = 0; r < rankedEdges_.size(); ++r) {
        const CouplingEdge &e = topo_.edge(rankedEdges_[r]);
        edgeRanks_[e.a].push_back(static_cast<int>(r));
        edgeRanks_[e.b].push_back(static_cast<int>(r));
    }
    candidateBits_.assign((rankedEdges_.size() + 63) / 64, 0);

    // The window never holds more gates than the circuit has.
    const size_t max_window =
        std::min(static_cast<size_t>(options_.lookahead), num_cnots);
    double weight = 1.0;
    weightSum_.push_back(0.0);
    for (size_t i = 0; i < max_window; ++i) {
        weight_.push_back(weight);
        weightSum_.push_back(weightSum_.back() + weight);
        weight *= options_.decay;
    }

    frontAt_.resize(topo_.numQubits());
    windowAt_.resize(topo_.numQubits());
}

void
SabreRoutePass::buildQueues(const std::vector<CnotPair> &cnots,
                            int n_prog)
{
    qubitCnots_.assign(n_prog, {});
    ptr_.assign(n_prog, 0);
    done_.assign(cnots.size(), false);
    firstPending_ = 0;
    for (size_t i = 0; i < cnots.size(); ++i) {
        qubitCnots_[cnots[i].a].push_back(static_cast<int>(i));
        qubitCnots_[cnots[i].b].push_back(static_cast<int>(i));
    }
}

void
SabreRoutePass::collectFront(const std::vector<CnotPair> &cnots)
{
    front_.clear();
    for (ProgQubit q = 0; q < static_cast<int>(qubitCnots_.size());
         ++q) {
        if (ptr_[q] >= qubitCnots_[q].size())
            continue;
        int g = qubitCnots_[q][ptr_[q]];
        const CnotPair &c = cnots[g];
        // Count each front gate once, from its lower qubit.
        if (q != std::min(c.a, c.b))
            continue;
        ProgQubit other = c.a == q ? c.b : c.a;
        if (qubitCnots_[other][ptr_[other]] == g)
            front_.push_back(g);
    }
    std::sort(front_.begin(), front_.end());
}

void
SabreRoutePass::retire(int g, const std::vector<CnotPair> &cnots)
{
    done_[g] = true;
    ++ptr_[cnots[g].a];
    ++ptr_[cnots[g].b];
}

void
SabreRoutePass::collectWindow(const std::vector<CnotPair> &cnots)
{
    window_.clear();
    for (int g = firstPending_;
         g < static_cast<int>(cnots.size()) &&
         window_.size() < weight_.size();
         ++g) {
        if (done_[g] ||
            std::binary_search(front_.begin(), front_.end(), g))
            continue;
        window_.push_back(g);
    }
}

void
SabreRoutePass::snapshot(const std::vector<CnotPair> &cnots,
                         const std::vector<HwQubit> &layout)
{
    std::fill(frontAt_.begin(), frontAt_.end(), -1);
    frontGates_.clear();
    frontSum_ = 0;
    for (int g : front_) {
        FrontGate f{layout[cnots[g].a], layout[cnots[g].b], 0};
        f.distance = topo_.distance(f.a, f.b);
        frontAt_[f.a] = frontAt_[f.b] =
            static_cast<int>(frontGates_.size());
        frontGates_.push_back(f);
        frontSum_ += f.distance;
    }

    for (const WindowGate &w : windowGates_) {
        windowAt_[w.a].clear();
        windowAt_[w.b].clear();
    }
    windowGates_.clear();
    windowTerms_.clear();
    windowSum_ = 0.0;
    for (size_t i = 0; i < window_.size(); ++i) {
        const CnotPair &c = cnots[window_[i]];
        WindowGate w{layout[c.a], layout[c.b], 0.0, windowSum_};
        w.term = weight_[i] * topo_.distance(w.a, w.b);
        windowAt_[w.a].push_back(static_cast<int>(i));
        windowAt_[w.b].push_back(static_cast<int>(i));
        windowGates_.push_back(w);
        windowTerms_.push_back(w.term);
        windowSum_ += w.term;
    }
}

void
SabreRoutePass::collectCandidates()
{
    // Mark the rank of every edge touching a front gate, then read the
    // ranks back in order: deduplicated and (a, b)-ordered, no sort.
    std::fill(candidateBits_.begin(), candidateBits_.end(), 0);
    for (const FrontGate &f : frontGates_)
        for (HwQubit h : {f.a, f.b})
            for (int r : edgeRanks_[h])
                candidateBits_[r / 64] |= std::uint64_t{1} << (r % 64);
    candidates_.clear();
    for (size_t w = 0; w < candidateBits_.size(); ++w)
        for (std::uint64_t bits = candidateBits_[w]; bits != 0;
             bits &= bits - 1)
            candidates_.push_back(
                rankedEdges_[w * 64 + __builtin_ctzll(bits)]);
}

double
SabreRoutePass::scoreSwap(EdgeId e)
{
    const HwQubit u = topo_.edge(e).a;
    const HwQubit v = topo_.edge(e).b;
    auto moved = [&](HwQubit h) { return h == u ? v : h == v ? u : h; };
    auto moved_distance = [&](HwQubit a, HwQubit b) {
        return topo_.distance(moved(a), moved(b));
    };

    // Only the (at most two) front gates sitting on u or v move.
    int front_sum = frontSum_;
    const int fu = frontAt_[u];
    const int fv = frontAt_[v];
    for (int i : {fu, fv == fu ? -1 : fv}) {
        if (i >= 0)
            front_sum += moved_distance(frontGates_[i].a,
                                        frontGates_[i].b) -
                         frontGates_[i].distance;
    }
    const double front_cost = static_cast<double>(front_sum) /
                              static_cast<double>(frontGates_.size());

    // The window sum resumes just before its first gate on u or v,
    // adding the same terms in the same order as a full rescan.
    double look_cost = 0.0;
    if (!windowGates_.empty()) {
        const std::vector<int> &at_u = windowAt_[u];
        const std::vector<int> &at_v = windowAt_[v];
        const size_t k = windowGates_.size();
        const size_t first =
            std::min(at_u.empty() ? k : static_cast<size_t>(at_u[0]),
                     at_v.empty() ? k : static_cast<size_t>(at_v[0]));
        double sum = windowSum_;
        if (first < k) {
            for (const std::vector<int> *at : {&at_u, &at_v})
                for (int i : *at)
                    windowTerms_[i] =
                        weight_[i] * moved_distance(windowGates_[i].a,
                                                    windowGates_[i].b);
            sum = windowGates_[first].sumBefore;
            for (size_t i = first; i < k; ++i)
                sum += windowTerms_[i];
            for (const std::vector<int> *at : {&at_u, &at_v})
                for (int i : *at)
                    windowTerms_[i] = windowGates_[i].term;
        }
        look_cost = sum / weightSum_[k];
    }

    return front_cost + options_.lookaheadWeight * look_cost +
           options_.reliabilityWeight * edgeCost_[e];
}

void
SabreRoutePass::applySwap(HwQubit u, HwQubit v,
                          std::vector<HwQubit> &layout)
{
    std::swap(occupant_[u], occupant_[v]);
    if (occupant_[u] != kInvalidQubit)
        layout[occupant_[u]] = u;
    if (occupant_[v] != kInvalidQubit)
        layout[occupant_[v]] = v;
}

std::vector<HwQubit>
SabreRoutePass::run(const std::vector<CnotPair> &cnots,
                    std::vector<HwQubit> layout)
{
    const int n_prog = static_cast<int>(layout.size());
    buildQueues(cnots, n_prog);

    occupant_.assign(topo_.numQubits(), kInvalidQubit);
    for (ProgQubit p = 0; p < n_prog; ++p)
        occupant_[layout[p]] = p;

    size_t executed = 0;
    int stalled_swaps = 0;
    const int stall_limit = 2 * topo_.numQubits() + 8;
    HwQubit last_a = kInvalidQubit, last_b = kInvalidQubit;

    // The frontier and the lookahead window only change when a gate
    // retires, never when a SWAP moves qubits, so both are recomputed
    // once per retirement round and reused across the SWAP steps.
    collectFront(cnots);
    collectWindow(cnots);
    while (executed < cnots.size()) {
        // Retire every executable front gate until a fixpoint.
        bool retired = false;
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (int g : front_) {
                if (!topo_.adjacent(layout[cnots[g].a],
                                    layout[cnots[g].b]))
                    continue;
                retire(g, cnots);
                ++executed;
                progressed = true;
            }
            if (progressed) {
                retired = true;
                stalled_swaps = 0;
                last_a = last_b = kInvalidQubit;
                while (firstPending_ <
                           static_cast<int>(cnots.size()) &&
                       done_[firstPending_])
                    ++firstPending_;
                collectFront(cnots);
            }
        }
        if (executed == cnots.size())
            break;
        if (retired)
            collectWindow(cnots);

        QC_ASSERT(!front_.empty(), "sabre frontier empty with CNOTs "
                                   "pending");

        if (stalled_swaps >= stall_limit) {
            // Anti-livelock: force-route the oldest front gate along
            // the most reliable path, guaranteeing progress whatever
            // the heuristic landscape looks like.
            const CnotPair &c = cnots[front_.front()];
            std::vector<HwQubit> path =
                machine_.mostReliablePath(layout[c.a], layout[c.b]);
            for (size_t k = 0; k + 2 < path.size(); ++k)
                applySwap(path[k], path[k + 1], layout);
            stalled_swaps = 0;
            last_a = last_b = kInvalidQubit;
            continue;
        }

        // Candidate exchanges: every coupling edge touching a front
        // gate's current position, deduplicated and (a, b)-ordered.
        snapshot(cnots, layout);
        collectCandidates();

        double best_score = std::numeric_limits<double>::infinity();
        best_.clear();
        for (size_t i = 0; i < candidates_.size(); ++i) {
            const CouplingEdge &c = topo_.edge(candidates_[i]);
            // Never immediately undo the previous exchange unless it
            // is the only move available.
            if (c.a == last_a && c.b == last_b && candidates_.size() > 1)
                continue;
            double s = scoreSwap(candidates_[i]);
            if (s < best_score - 1e-12) {
                best_score = s;
                best_.assign(1, i);
            } else if (s < best_score + 1e-12) {
                best_.push_back(i);
            }
        }
        QC_ASSERT(!best_.empty(), "sabre swap search found no candidate");
        size_t pick =
            best_.size() == 1
                ? best_.front()
                : best_[static_cast<size_t>(rng_.uniformInt(
                      0, static_cast<int>(best_.size()) - 1))];
        const CouplingEdge &chosen = topo_.edge(candidates_[pick]);
        applySwap(chosen.a, chosen.b, layout);
        last_a = chosen.a;
        last_b = chosen.b;
        ++stalled_swaps;
    }

    return layout;
}

} // namespace

SabrePlacementResult
sabrePlacementDetailed(const Machine &machine, const Circuit &prog,
                       const SabreOptions &options,
                       const CancelToken *cancel)
{
    throwIfCancelled(cancel, "sabre refinement cancelled");
    const int n_prog = prog.numQubits();
    const int n_hw = machine.numQubits();
    if (n_prog > n_hw)
        QC_FATAL("program needs ", n_prog, " qubits but machine has ",
                 n_hw);
    if (options.iterations < 0)
        QC_FATAL("sabre iterations must be >= 0, got ",
                 options.iterations);
    if (options.lookahead < 0)
        QC_FATAL("sabre lookahead must be >= 0, got ",
                 options.lookahead);

    SabrePlacementResult result;
    result.layout = options.greedySeed
                        ? greedyEdgePlacement(machine, prog)
                        : qiskitTrivialLayout(prog);

    // The seed is itself a candidate, so the refined layout never
    // predicts worse than the heuristic it started from — and both
    // are scored with the same tracking-router movement model the
    // standard Sabre bundle schedules with.
    TrackingRouter evaluator(machine);
    auto evaluate = [&](const std::vector<HwQubit> &layout) {
        return evaluator.run(prog, layout, cancel).predictedSuccess;
    };
    result.predictedSuccess = evaluate(result.layout);

    std::vector<CnotPair> forward = cnotSequence(prog);
    if (forward.empty() || options.iterations == 0)
        return result; // nothing to refine against

    std::vector<CnotPair> backward(forward.rbegin(), forward.rend());

    Rng rng(options.seed, "sabre-ties");
    SabreRoutePass router(machine, options, rng, forward.size());

    std::vector<HwQubit> current = result.layout;
    for (int it = 0; it < options.iterations; ++it) {
        // Round-trip boundaries are the natural cancellation points:
        // each trip is a full routed pass over the circuit.
        throwIfCancelled(cancel, "sabre refinement cancelled");
        std::vector<HwQubit> after_forward =
            router.run(forward, std::move(current));
        current = router.run(backward, std::move(after_forward));
        ++result.roundTrips;

        double score = evaluate(current);
        if (score > result.predictedSuccess) {
            result.predictedSuccess = score;
            result.layout = current;
        }
    }
    return result;
}

std::vector<HwQubit>
sabrePlacement(const Machine &machine, const Circuit &prog,
               const SabreOptions &options)
{
    return sabrePlacementDetailed(machine, prog, options).layout;
}

CompileStatus
SabrePlacementPass::run(CompileContext &ctx) const
{
    const Circuit &prog = ctx.circuit();
    const int n_prog = prog.numQubits();
    const int n_hw = ctx.mach().numQubits();
    if (n_prog > n_hw)
        return CompileStatus::infeasible(
            "program needs " + std::to_string(n_prog) +
            " qubits but machine has " + std::to_string(n_hw));

    SabrePlacementResult result =
        sabrePlacementDetailed(ctx.mach(), prog, options_, ctx.cancel);
    ctx.layout = std::move(result.layout);

    std::ostringstream oss;
    oss << result.roundTrips << " round trips, lookahead "
        << options_.lookahead << ", best pred. success "
        << result.predictedSuccess;
    ctx.addNote(oss.str());
    return CompileStatus::success();
}

} // namespace qc
