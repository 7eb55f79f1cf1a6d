#include "bnb_placer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "solver/objective.hpp"
#include "support/logging.hpp"

namespace qc {

namespace {

/**
 * Search nodes between two budget polls. A node costs about 15 us on a
 * 16-qubit program on grid:8x8, so a poll comes every ~15 ms there.
 */
constexpr std::int64_t kPollNodes = 1024;

} // namespace

BnbPlacer::BnbPlacer(const Machine &machine, const Circuit &prog,
                     BnbOptions options)
    : machine_(machine),
      prog_(prog),
      options_(options),
      numProg_(prog.numQubits()),
      numHw_(machine.numQubits())
{
    if (numProg_ > numHw_)
        QC_FATAL("program needs ", numProg_, " qubits but machine has ",
                 numHw_);

    OrderedCnotWeights weights(prog);
    readouts_.resize(numProg_);
    for (int q = 0; q < numProg_; ++q)
        readouts_[q] = weights.readouts(q);

    logRo_.resize(numHw_);
    for (HwQubit h = 0; h < numHw_; ++h)
        logRo_[h] = std::log(machine_.cal().readoutReliability(h));

    logEc_.assign(numHw_, std::vector<double>(numHw_, 0.0));
    for (HwQubit a = 0; a < numHw_; ++a)
        for (HwQubit b = 0; b < numHw_; ++b)
            if (a != b)
                logEc_[a][b] =
                    std::log(machine_.bestPathReliability(a, b));

    // Branching order: heaviest-connected-to-placed first (start from
    // the heaviest qubit overall), which keeps bounds tight.
    std::vector<int> degree(numProg_, 0);
    for (const auto &e : weights.entries()) {
        degree[e.control] += e.count;
        degree[e.target] += e.count;
    }
    std::vector<bool> placed(numProg_, false);
    for (int lvl = 0; lvl < numProg_; ++lvl) {
        int best = -1;
        int best_conn = -1;
        int best_deg = -1;
        for (int q = 0; q < numProg_; ++q) {
            if (placed[q])
                continue;
            int conn = 0;
            for (const auto &e : weights.entries()) {
                if (e.control == q && placed[e.target])
                    conn += e.count;
                if (e.target == q && placed[e.control])
                    conn += e.count;
            }
            if (conn > best_conn ||
                (conn == best_conn && degree[q] > best_deg)) {
                best = q;
                best_conn = conn;
                best_deg = degree[q];
            }
        }
        placed[best] = true;
        order_.push_back(best);
    }

    // Per-level edges back to already-branched levels.
    std::vector<int> level_of(numProg_, -1);
    for (int lvl = 0; lvl < numProg_; ++lvl)
        level_of[order_[lvl]] = lvl;
    levelEdges_.assign(numProg_, {});
    for (const auto &e : weights.entries()) {
        int lc = level_of[e.control];
        int lt = level_of[e.target];
        if (lc > lt) {
            // control branched later; earlier endpoint is the target
            levelEdges_[lc].push_back({lt, e.count, true});
        } else {
            levelEdges_[lt].push_back({lc, e.count, false});
        }
    }

    for (const auto &e : weights.entries())
        terms_.push_back({e.control, e.target, e.count});
}

double
BnbPlacer::readoutGain(ProgQubit q, HwQubit h) const
{
    return options_.readoutWeight * readouts_[q] * logRo_[h];
}

double
BnbPlacer::edgeGain(HwQubit hc, HwQubit ht) const
{
    return (1.0 - options_.readoutWeight) * logEc_[hc][ht];
}

double
BnbPlacer::bound(int level) const
{
    const double w = options_.readoutWeight;
    double b = 0.0;

    // Readout bound: each unplaced qubit could land on the best free
    // readout location.
    double best_free_ro = -std::numeric_limits<double>::infinity();
    for (HwQubit h = 0; h < numHw_; ++h)
        if (!used_[h])
            best_free_ro = std::max(best_free_ro, logRo_[h]);
    for (int lvl = level; lvl < numProg_; ++lvl) {
        ProgQubit q = order_[lvl];
        if (readouts_[q] > 0)
            b += w * readouts_[q] * best_free_ro;
    }

    // CNOT bound: each not-yet-determined term could use the best EC
    // consistent with its placed endpoint (or the global best).
    for (const auto &t : terms_) {
        HwQubit hc = assign_[t.control];
        HwQubit ht = assign_[t.target];
        if (hc != kInvalidQubit && ht != kInvalidQubit)
            continue; // already counted in the node value
        double best = -std::numeric_limits<double>::infinity();
        if (hc != kInvalidQubit) {
            for (HwQubit h = 0; h < numHw_; ++h)
                if (!used_[h])
                    best = std::max(best, logEc_[hc][h]);
        } else if (ht != kInvalidQubit) {
            for (HwQubit h = 0; h < numHw_; ++h)
                if (!used_[h])
                    best = std::max(best, logEc_[h][ht]);
        } else {
            for (HwQubit a = 0; a < numHw_; ++a) {
                if (used_[a])
                    continue;
                for (HwQubit bq = 0; bq < numHw_; ++bq)
                    if (bq != a && !used_[bq])
                        best = std::max(best, logEc_[a][bq]);
            }
        }
        b += (1.0 - w) * t.weight * best;
    }
    return b;
}

void
BnbPlacer::dfs(int level, double value)
{
    if (hitLimit_)
        return;
    // Never trip the limit before the first (greedy) leaf: solve()
    // must always return a valid placement.
    if (++nodes_ > options_.nodeLimit && !best_.empty()) {
        hitLimit_ = true;
        return;
    }
    if (nodes_ % kPollNodes == 0 && !best_.empty() &&
        (isCancelled(options_.cancel) ||
         std::chrono::steady_clock::now() >= options_.deadline)) {
        hitLimit_ = true;
        return;
    }
    if (level == numProg_) {
        if (options_.visitLeaf &&
            (best_.empty() || value > bestObj_ + options_.pruneMargin))
            options_.visitLeaf(assign_);
        if (value > bestObj_ || best_.empty()) {
            bestObj_ = value;
            best_ = assign_;
        }
        return;
    }
    if (!best_.empty() &&
        value + bound(level) <= bestObj_ + options_.pruneMargin)
        return;

    ProgQubit q = order_[level];
    std::vector<std::pair<double, HwQubit>> cands;
    for (HwQubit h = 0; h < numHw_; ++h) {
        if (used_[h])
            continue;
        double gain = readoutGain(q, h);
        for (const auto &e : levelEdges_[level]) {
            HwQubit other = assign_[order_[e.earlierLevel]];
            gain += e.asControl ? e.weight * edgeGain(h, other)
                                : e.weight * edgeGain(other, h);
        }
        cands.push_back({gain, h});
    }
    std::stable_sort(cands.begin(), cands.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });

    for (const auto &[gain, h] : cands) {
        assign_[q] = h;
        used_[h] = true;
        dfs(level + 1, value + gain);
        used_[h] = false;
        assign_[q] = kInvalidQubit;
        if (hitLimit_)
            return;
    }
}

BnbResult
BnbPlacer::solve()
{
    assign_.assign(numProg_, kInvalidQubit);
    used_.assign(numHw_, false);
    best_.clear();
    bestObj_ = -std::numeric_limits<double>::infinity();
    nodes_ = 0;
    hitLimit_ = false;

    dfs(0, 0.0);

    QC_ASSERT(!best_.empty(), "branch-and-bound found no placement");
    BnbResult result;
    result.layout = best_;
    result.objective = bestObj_;
    result.nodesExplored = nodes_;
    result.optimal = !hitLimit_;
    return result;
}

} // namespace qc
