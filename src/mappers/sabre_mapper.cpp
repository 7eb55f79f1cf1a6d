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
 * A SWAP step is decided from cheap keys, with every score, tie set
 * and tie-break draw of the reference scan kept. The reference scores
 * each candidate exchange e = (u, v) as
 *
 *     S = f' / n + lambda * (X' / W) + rho * c_e
 *
 * (f' the integer sum of the n front gates' hop distances after the
 * exchange, X' the left fold in window order of the terms
 * t_i = w_i * d_i over the k window gates, W the fold of the k decay
 * weights, c_e the edge's -log reliability), and scans the candidates
 * in (a, b) order, skipping the previous exchange when another exists:
 * a score below best - tau (tau = 1e-12) resets the tie set to it and
 * becomes the best, a score below best + tau joins the set, and a set
 * of several ends in one Rng draw. u and v are adjacent, so every hop
 * distance the exchange changes moves by at most one. The step
 * snapshot holds each qubit's front partner (a sentinel qubit at
 * distance 0 from every qubit when it has none), the front sum f, and
 * per window gate its endpoints' XOR, its term and the running sum
 * before it, X being the whole fold. A candidate's key is
 *
 *     K = base + df * (1 / n) + (lambda / W) * dw + rho * c_e,
 *     base = f * (1 / n) + (lambda / W) * X,
 *
 * with df the exact integer front delta (partners' distances, the
 * sentinel contributing 0), dw the sum of w_i * delta_i over the window
 * gates on u or v only (each delta_i in {-1, 0, 1}, so each product is
 * exact; a gate's other endpoint is a ^ b ^ u), and the reciprocals
 * hoisted per step.
 *
 * (a) Separation. When the smallest key K* trails every other key by
 *     more than tau + 2 epsilon, epsilon as in (b), the scan ends with
 *     that candidate alone and draws nothing. In real numbers every
 *     other S_j then exceeds S* + tau by more than the rounding of
 *     fl(S_j - tau) and of fl(S* + tau). The running best before the
 *     scan reaches the winner is infinity or some earlier S_j, so the
 *     winner resets the set to itself (S* is finite because K* and
 *     epsilon are); every later S_j is at least fl(S* + tau), neither
 *     a reset nor a tie. A one-element set draws nothing. The skipped
 *     previous exchange gets no key and is outside the scan in both.
 *     The step then commits the winner without scoring anything
 *     exactly.
 * (b) The bound epsilon. Let mu = 2^-53 (the unit roundoff), D the
 *     topology's diameter and M = D + |lambda| * D * sum|w_i| / |W| +
 *     max_e |rho * c_e|. M bounds every front cost, window cost, edge
 *     term, score and key of the step, and every partial sum. S rounds
 *     the front division, at most k - 1 additions of its window fold
 *     (within gamma_{k-1} * sum|t_i|, Higham, Accuracy and Stability
 *     of Numerical Algorithms, 2002, sec. 4.2), the window division,
 *     the product by lambda and two final sums: within (k + 6) mu M of
 *     its real value. K rounds the k-term fold behind X, the k new and
 *     old term products its delta stands for, at most 2k - 1 additions
 *     in dw, two reciprocals, four products and four sums: within
 *     (3k + 18) mu M. So |K - S| <= E = (4k + 24) mu M, and the
 *     rounding of the thresholds, fl(best +- tau) and the tests
 *     themselves, adds at most 2 mu M more. epsilon =
 *     (3k + 24) * DBL_EPSILON * M = (6k + 48) mu M covers both with
 *     half again to spare, which also absorbs M's own rounding and
 *     underflow (at most 2^-1075 per operation, against M >= 2).
 *     Options under which M, or D * W (which bounds the window fold),
 *     exceeds DBL_MAX / 8 are refused when the pass is built: a score
 *     could round to infinity or NaN, and a step whose every score
 *     does has no candidate. So epsilon is always finite.
 * (c) Lazy fallback. Otherwise the step runs the reference scan, but
 *     scores a candidate exactly only when K <= fl(best + tau) +
 *     epsilon, best the running exact best. A candidate above that has
 *     S >= fl(best + tau) >= fl(best - tau), so the reference rule
 *     neither resets nor extends the set with it: skipping it leaves
 *     the best score, the set and the draw as they were. A NaN key
 *     fails the test and is scored.
 *     No candidate may instead be dropped before the scan for trailing
 *     the best key by much: the scan is order-sensitive, since a set's
 *     members compare with the best score at the time they join. With
 *     tau = 1, scores 2.1, 1.5, 0.8, 0 end with {0.8, 0} (1.5 joins
 *     2.1, 0.8 resets, 0 joins 0.8), but without 2.1 they end with {0}
 *     (0.8 joins 1.5, 0 resets).
 * (d) In-place update. After a SWAP that retires nothing, the front and
 *     window hold the same gates, so the snapshot is updated rather
 *     than rebuilt: the front sum by the committed delta, the partners
 *     of u, v and of their partners, each window gate on u or v (its
 *     XOR and term), and the lists of window gates at u and v trade
 *     places. The running sums are re-folded from the first touched
 *     rank; the terms before it, and so their running sums, are
 *     unchanged, and the fold from there adds the same terms in the
 *     same order as a rebuild. A SWAP moves only the front gates on its
 *     pair, so only those can have become executable; a forced route
 *     moves many qubits and marks the snapshot stale instead.
 */
class SabreRoutePass
{
  public:
    SabreRoutePass(const Machine &machine, const SabreOptions &options,
                   Rng &rng, size_t num_cnots);

    std::vector<HwQubit> run(const std::vector<CnotPair> &cnots,
                             std::vector<HwQubit> layout);

  private:
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

    /** Rebuild the step snapshot from the front, window and layout. */
    void snapshot(const std::vector<CnotPair> &cnots,
                  const std::vector<HwQubit> &layout);

    /** Update the snapshot for a committed exchange (u, v), (d). */
    void updateSnapshot(HwQubit u, HwQubit v);

    /** Recompute the window's running sums from rank `first` on. */
    void refold(size_t first);

    /** Coupling-edge ranks touching a front gate, in (a, b) order. */
    void collectCandidates(const std::vector<CnotPair> &cnots,
                           const std::vector<HwQubit> &layout);

    /** Does the front gate on h, if any, sit on a coupling edge? */
    bool frontExecutableAt(HwQubit h) const
    {
        return dist_[h * stride_ + partner_[h]] == 1;
    }

    /** Exact change of the front sum under exchange (u, v). */
    int frontDelta(HwQubit u, HwQubit v) const;

    /** The reference score of the edge of rank r, bit for bit. */
    double exactScore(int r);

    /** The candidate index the reference scan commits, (a)-(c). */
    size_t chooseSwap(HwQubit last_a, HwQubit last_b);

    void applySwap(HwQubit u, HwQubit v, std::vector<HwQubit> &layout);

    const Machine &machine_;
    const Topology &topo_;
    const SabreOptions &options_;
    Rng &rng_;

    // Per compile.
    int sentinel_;            ///< the partner of a qubit without one
    int stride_;              ///< row length of dist_
    std::vector<int> dist_;   ///< hop distances, zero sentinel row/col
    std::vector<HwQubit> rankA_, rankB_; ///< edge endpoints by rank
    std::vector<double> edgeTerm_; ///< rho * -log reliability by rank
    std::vector<std::vector<int>> edgeRanks_; ///< per qubit: its ranks
    std::vector<double> weight_;    ///< decay weight of window rank i
    std::vector<double> weightSum_; ///< sum of the first k weights
    std::vector<double> epsilon_;   ///< (b)'s bound for k window gates

    // Per pass.
    std::vector<std::vector<int>> qubitCnots_;
    std::vector<size_t> ptr_;
    std::vector<bool> done_;
    std::vector<ProgQubit> occupant_;
    int firstPending_ = 0;
    std::vector<int> front_;
    std::vector<int> window_;

    // Step snapshot, kept across SWAPs that retire nothing.
    std::vector<int> partner_; ///< per qubit: front partner or sentinel
    int frontSum_ = 0;
    std::vector<int> windowXor_;      ///< per window gate: a ^ b
    std::vector<double> windowTerm_;  ///< per window gate: w_i * d_i
    std::vector<double> sumBefore_;   ///< fold of the terms before i
    double windowSum_ = 0.0;
    std::vector<std::vector<int>> windowAt_; ///< per qubit: its ranks

    // Per SWAP step.
    std::vector<int> candidates_; ///< edge ranks
    std::vector<std::uint64_t> candidateBits_;
    std::vector<double> keys_;
    std::vector<size_t> best_;
};

SabreRoutePass::SabreRoutePass(const Machine &machine,
                               const SabreOptions &options, Rng &rng,
                               size_t num_cnots)
    : machine_(machine), topo_(machine.topo()), options_(options),
      rng_(rng)
{
    const int n = topo_.numQubits();
    sentinel_ = n;
    stride_ = n + 1;
    dist_.assign(static_cast<size_t>(stride_) * stride_, 0);
    int diameter = 0;
    for (HwQubit a = 0; a < n; ++a)
        for (HwQubit b = 0; b < n; ++b) {
            dist_[a * stride_ + b] = topo_.distance(a, b);
            diameter = std::max(diameter, topo_.distance(a, b));
        }

    std::vector<EdgeId> ranked(topo_.numEdges());
    for (EdgeId e = 0; e < topo_.numEdges(); ++e)
        ranked[e] = e;
    std::sort(ranked.begin(), ranked.end(), [&](EdgeId x, EdgeId y) {
        const CouplingEdge &ex = topo_.edge(x);
        const CouplingEdge &ey = topo_.edge(y);
        return std::make_pair(ex.a, ex.b) < std::make_pair(ey.a, ey.b);
    });
    edgeRanks_.assign(n, {});
    // The largest edge term; a NaN one sticks, and so makes M NaN.
    double max_edge_term = 0.0;
    for (size_t r = 0; r < ranked.size(); ++r) {
        const CouplingEdge &e = topo_.edge(ranked[r]);
        rankA_.push_back(e.a);
        rankB_.push_back(e.b);
        edgeTerm_.push_back(
            options_.reliabilityWeight *
            -std::log(machine_.cal().cnotReliability(ranked[r])));
        if (std::isnan(edgeTerm_.back()) ||
            std::fabs(edgeTerm_.back()) > max_edge_term)
            max_edge_term = std::fabs(edgeTerm_.back());
        edgeRanks_[e.a].push_back(static_cast<int>(r));
        edgeRanks_[e.b].push_back(static_cast<int>(r));
    }
    candidateBits_.assign((ranked.size() + 63) / 64, 0);

    // The window never holds more gates than the circuit has.
    const size_t max_window =
        std::min(static_cast<size_t>(options_.lookahead), num_cnots);
    constexpr double kMaxBound = std::numeric_limits<double>::max() / 8;
    double weight = 1.0;
    double abs_weight_sum = 0.0;
    weightSum_.push_back(0.0);
    for (size_t k = 0; k <= max_window; ++k) {
        const double look =
            k == 0 ? 0.0
                   : diameter * abs_weight_sum / std::fabs(weightSum_[k]);
        const double m = diameter +
                         std::fabs(options_.lookaheadWeight) * look +
                         max_edge_term;
        if (!(m <= kMaxBound && diameter * weightSum_[k] <= kMaxBound))
            QC_FATAL("sabre weights overflow a SWAP score: decay ",
                     options_.decay, " over a window of ", max_window,
                     " CNOTs, lookahead weight ",
                     options_.lookaheadWeight, ", reliability weight ",
                     options_.reliabilityWeight);
        epsilon_.push_back((3.0 * static_cast<double>(k) + 24.0) *
                           std::numeric_limits<double>::epsilon() * m);
        if (k == max_window)
            break;
        weight_.push_back(weight);
        weightSum_.push_back(weightSum_.back() + weight);
        abs_weight_sum += std::fabs(weight);
        weight *= options_.decay;
    }

    partner_.resize(n + 1);
    windowAt_.resize(n);
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
    std::fill(partner_.begin(), partner_.end(), sentinel_);
    frontSum_ = 0;
    for (int g : front_) {
        const HwQubit a = layout[cnots[g].a];
        const HwQubit b = layout[cnots[g].b];
        partner_[a] = b;
        partner_[b] = a;
        frontSum_ += dist_[a * stride_ + b];
    }

    for (std::vector<int> &at : windowAt_)
        at.clear();
    const size_t k = window_.size();
    windowXor_.resize(k);
    windowTerm_.resize(k);
    sumBefore_.resize(k);
    windowSum_ = 0.0;
    for (size_t i = 0; i < k; ++i) {
        const HwQubit a = layout[cnots[window_[i]].a];
        const HwQubit b = layout[cnots[window_[i]].b];
        windowXor_[i] = a ^ b;
        windowTerm_[i] = weight_[i] * dist_[a * stride_ + b];
        windowAt_[a].push_back(static_cast<int>(i));
        windowAt_[b].push_back(static_cast<int>(i));
    }
    if (k > 0) {
        sumBefore_[0] = 0.0;
        refold(0);
    }
}

void
SabreRoutePass::refold(size_t first)
{
    double sum = sumBefore_[first];
    for (size_t i = first; i < windowTerm_.size(); ++i) {
        sumBefore_[i] = sum;
        sum += windowTerm_[i];
    }
    windowSum_ = sum;
}

void
SabreRoutePass::updateSnapshot(HwQubit u, HwQubit v)
{
    frontSum_ += frontDelta(u, v);
    const int pu = partner_[u];
    const int pv = partner_[v];
    partner_[u] = pv;
    partner_[v] = pu;
    partner_[pu] = v;
    partner_[pv] = u;
    partner_[sentinel_] = sentinel_;

    // A gate on both u and v flips twice and keeps its XOR.
    size_t first = windowTerm_.size();
    for (HwQubit h : {u, v})
        for (int i : windowAt_[h]) {
            windowXor_[i] ^= u ^ v;
            first = std::min(first, static_cast<size_t>(i));
        }
    std::swap(windowAt_[u], windowAt_[v]);
    for (HwQubit h : {u, v})
        for (int i : windowAt_[h])
            windowTerm_[i] =
                weight_[i] * dist_[h * stride_ + (windowXor_[i] ^ h)];
    if (first < windowTerm_.size())
        refold(first);
}

void
SabreRoutePass::collectCandidates(const std::vector<CnotPair> &cnots,
                                  const std::vector<HwQubit> &layout)
{
    // Mark the rank of every edge touching a front gate, then read the
    // ranks back in order: deduplicated and (a, b)-ordered, no sort.
    std::fill(candidateBits_.begin(), candidateBits_.end(), 0);
    for (int g : front_)
        for (HwQubit h : {layout[cnots[g].a], layout[cnots[g].b]})
            for (int r : edgeRanks_[h])
                candidateBits_[r / 64] |= std::uint64_t{1} << (r % 64);
    candidates_.clear();
    for (size_t w = 0; w < candidateBits_.size(); ++w)
        for (std::uint64_t bits = candidateBits_[w]; bits != 0;
             bits &= bits - 1)
            candidates_.push_back(
                static_cast<int>(w * 64 + __builtin_ctzll(bits)));
}

int
SabreRoutePass::frontDelta(HwQubit u, HwQubit v) const
{
    const int *du = &dist_[u * stride_];
    const int *dv = &dist_[v * stride_];
    const int pu = partner_[u];
    const int pv = partner_[v];
    return dv[pu] - du[pu] + du[pv] - dv[pv];
}

double
SabreRoutePass::exactScore(int r)
{
    const HwQubit u = rankA_[r];
    const HwQubit v = rankB_[r];
    const double front_cost =
        static_cast<double>(frontSum_ + frontDelta(u, v)) /
        static_cast<double>(front_.size());

    // The window sum resumes just before its first gate on u or v,
    // adding the same terms in the same order as a full rescan; the
    // snapshot's terms are put back after.
    double look_cost = 0.0;
    const size_t k = windowTerm_.size();
    if (k > 0) {
        const std::vector<int> &at_u = windowAt_[u];
        const std::vector<int> &at_v = windowAt_[v];
        const size_t first =
            std::min(at_u.empty() ? k : static_cast<size_t>(at_u[0]),
                     at_v.empty() ? k : static_cast<size_t>(at_v[0]));
        double sum = windowSum_;
        if (first < k) {
            auto remeasure = [&](bool moved) {
                for (HwQubit h : {u, v}) {
                    const HwQubit to = !moved ? h : h == u ? v : u;
                    for (int i : windowAt_[h]) {
                        int o = windowXor_[i] ^ h;
                        if (moved && o == to)
                            o = h;
                        windowTerm_[i] =
                            weight_[i] * dist_[to * stride_ + o];
                    }
                }
            };
            remeasure(true);
            sum = sumBefore_[first];
            for (size_t i = first; i < k; ++i)
                sum += windowTerm_[i];
            remeasure(false);
        }
        look_cost = sum / weightSum_[k];
    }

    return front_cost + options_.lookaheadWeight * look_cost +
           edgeTerm_[r];
}

size_t
SabreRoutePass::chooseSwap(HwQubit last_a, HwQubit last_b)
{
    constexpr double kTie = 1e-12;
    const size_t n = candidates_.size();
    // Never immediately undo the previous exchange unless it is the
    // only move available.
    auto skipped = [&](size_t i) {
        return rankA_[candidates_[i]] == last_a &&
               rankB_[candidates_[i]] == last_b && n > 1;
    };

    const size_t k = windowTerm_.size();
    const double inv_front = 1.0 / static_cast<double>(front_.size());
    const double look_scale =
        k > 0 ? options_.lookaheadWeight / weightSum_[k] : 0.0;
    const double base = frontSum_ * inv_front + look_scale * windowSum_;
    const double eps = epsilon_[k];

    keys_.resize(n);
    size_t first = n;
    double first_key = std::numeric_limits<double>::infinity();
    double second_key = first_key;
    bool nan_key = false;
    for (size_t i = 0; i < n; ++i) {
        if (skipped(i))
            continue;
        const int r = candidates_[i];
        const HwQubit u = rankA_[r];
        const HwQubit v = rankB_[r];
        const int *du = &dist_[u * stride_];
        const int *dv = &dist_[v * stride_];
        double dw = 0.0;
        for (int g : windowAt_[u]) {
            const int o = windowXor_[g] ^ u;
            dw += weight_[g] * (dv[o == v ? u : o] - du[o]);
        }
        for (int g : windowAt_[v]) {
            const int o = windowXor_[g] ^ v;
            dw += weight_[g] * (du[o == u ? v : o] - dv[o]);
        }
        const double key = base + frontDelta(u, v) * inv_front +
                           look_scale * dw + edgeTerm_[r];
        keys_[i] = key;
        nan_key |= std::isnan(key);
        if (key < first_key) {
            second_key = first_key;
            first_key = key;
            first = i;
        } else if (key < second_key) {
            second_key = key;
        }
    }
    // (a): a clear winner is what the scan would reset to and keep.
    if (!nan_key && first < n && second_key - first_key > kTie + 2 * eps)
        return first;

    // (c): the reference scan, scoring only what may act on the best.
    double best_score = std::numeric_limits<double>::infinity();
    best_.clear();
    for (size_t i = 0; i < n; ++i) {
        if (skipped(i) || keys_[i] > (best_score + kTie) + eps)
            continue;
        double s = exactScore(candidates_[i]);
        if (s < best_score - kTie) {
            best_score = s;
            best_.assign(1, i);
        } else if (s < best_score + kTie) {
            best_.push_back(i);
        }
    }
    QC_ASSERT(!best_.empty(), "sabre swap search found no candidate");
    return best_.size() == 1
               ? best_.front()
               : best_[static_cast<size_t>(rng_.uniformInt(
                     0, static_cast<int>(best_.size()) - 1))];
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
    // The snapshot must be rebuilt; while it is not, last_a and last_b
    // are the exchange it was last updated for.
    bool fresh = true;

    // The frontier and the lookahead window only change when a gate
    // retires, never when a SWAP moves qubits, so both are recomputed
    // once per retirement round and reused across the SWAP steps.
    collectFront(cnots);
    collectWindow(cnots);
    while (executed < cnots.size()) {
        // Retire every executable front gate until a fixpoint. A SWAP
        // moves only the front gates on its pair, so after one only
        // those can have become executable.
        QC_ASSERT(fresh || last_a != kInvalidQubit,
                  "sabre snapshot updated for no exchange");
        if (fresh || frontExecutableAt(last_a) ||
            frontExecutableAt(last_b)) {
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
            if (retired) {
                collectWindow(cnots);
                fresh = true;
            }
        }

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
            fresh = true;
            continue;
        }

        // Candidate exchanges: every coupling edge touching a front
        // gate's current position, deduplicated and (a, b)-ordered.
        if (fresh)
            snapshot(cnots, layout);
        fresh = false;
        collectCandidates(cnots, layout);

        const int chosen = candidates_[chooseSwap(last_a, last_b)];
        last_a = rankA_[chosen];
        last_b = rankB_[chosen];
        applySwap(last_a, last_b, layout);
        updateSnapshot(last_a, last_b);
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
    // Decay -1 zeroes the window weights' sum over an even window, and
    // a non-finite weight makes every SWAP score NaN: no candidate.
    // Finite weights too large for the machine's scores are refused
    // when the routing pass is built.
    if (!std::isfinite(options.decay) || options.decay < 0.0 ||
        !std::isfinite(options.lookaheadWeight) ||
        !std::isfinite(options.reliabilityWeight))
        QC_FATAL("sabre decay must be finite and >= 0 and its weights "
                 "finite, got decay ", options.decay, ", lookahead "
                 "weight ", options.lookaheadWeight,
                 ", reliability weight ", options.reliabilityWeight);

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
