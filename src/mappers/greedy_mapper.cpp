#include "greedy_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ir/program_graph.hpp"
#include "support/logging.hpp"

namespace qc {

namespace {

/** Best-readout free hardware qubit (for isolated program qubits). */
HwQubit
bestFreeReadout(const Machine &machine, const std::vector<bool> &used)
{
    HwQubit best = kInvalidQubit;
    double best_rel = -1.0;
    for (HwQubit h = 0; h < machine.numQubits(); ++h) {
        if (used[h])
            continue;
        double rel = machine.cal().readoutReliability(h);
        if (rel > best_rel) {
            best_rel = rel;
            best = h;
        }
    }
    return best;
}

} // namespace

HwQubit
bestAttachedLocation(
    const Machine &machine,
    const std::vector<std::pair<HwQubit, int>> &placed_neighbors,
    const std::vector<bool> &used)
{
    HwQubit best = kInvalidQubit;
    double best_cost = std::numeric_limits<double>::infinity();
    double best_ro = -1.0;
    for (HwQubit h = 0; h < machine.numQubits(); ++h) {
        if (used[h])
            continue;
        double cost = 0.0;
        for (const auto &[nbr, weight] : placed_neighbors)
            cost += weight * machine.mostReliablePathCost(h, nbr);
        double ro = machine.cal().readoutReliability(h);
        if (cost < best_cost - 1e-12 ||
            (cost < best_cost + 1e-12 && ro > best_ro)) {
            best_cost = cost;
            best_ro = ro;
            best = h;
        }
    }
    return best;
}

std::vector<HwQubit>
greedyVertexPlacement(const Machine &machine_, const Circuit &prog)
{
    const int n_prog = prog.numQubits();
    const int n_hw = machine_.numQubits();
    if (n_prog > n_hw)
        QC_FATAL("program needs ", n_prog, " qubits but machine has ",
                 n_hw);

    ProgramGraph pg(prog);
    std::vector<HwQubit> layout(n_prog, kInvalidQubit);
    std::vector<bool> used(n_hw, false);

    // Seed: the heaviest program qubit goes to the hardware qubit
    // with the best readout among maximal-degree (interior) locations.
    std::vector<ProgQubit> by_degree = pg.sortedQubitsByDegree();
    {
        int max_deg = 0;
        for (HwQubit h = 0; h < n_hw; ++h)
            max_deg = std::max(
                max_deg,
                static_cast<int>(machine_.topo().neighbors(h).size()));
        HwQubit best = kInvalidQubit;
        double best_rel = -1.0;
        for (HwQubit h = 0; h < n_hw; ++h) {
            int deg =
                static_cast<int>(machine_.topo().neighbors(h).size());
            if (deg != max_deg)
                continue;
            double rel = machine_.cal().readoutReliability(h);
            if (rel > best_rel) {
                best_rel = rel;
                best = h;
            }
        }
        ProgQubit first = by_degree.front();
        layout[first] = best;
        used[best] = true;
    }

    // Attach remaining qubits: highest-degree qubit with a placed
    // neighbor first; isolated qubits go to the best free readout.
    int placed_count = 1;
    while (placed_count < n_prog) {
        ProgQubit next = kInvalidQubit;
        bool next_attached = false;
        for (ProgQubit q : by_degree) {
            if (layout[q] != kInvalidQubit)
                continue;
            bool attached = false;
            for (ProgQubit nbr : pg.neighbors(q))
                if (layout[nbr] != kInvalidQubit)
                    attached = true;
            if (attached) {
                next = q;
                next_attached = true;
                break;
            }
            if (next == kInvalidQubit)
                next = q;
        }

        HwQubit loc;
        if (next_attached) {
            std::vector<std::pair<HwQubit, int>> placed_nbrs;
            for (ProgQubit nbr : pg.neighbors(next))
                if (layout[nbr] != kInvalidQubit)
                    placed_nbrs.push_back(
                        {layout[nbr], pg.edgeWeight(next, nbr)});
            loc = bestAttachedLocation(machine_, placed_nbrs, used);
        } else {
            loc = bestFreeReadout(machine_, used);
        }
        QC_ASSERT(loc != kInvalidQubit, "no free hardware qubit left");
        layout[next] = loc;
        used[loc] = true;
        ++placed_count;
    }

    return layout;
}

std::vector<HwQubit>
greedyEdgePlacement(const Machine &machine, const Circuit &prog)
{
    const int n_prog = prog.numQubits();
    const int n_hw = machine.numQubits();
    if (n_prog > n_hw)
        QC_FATAL("program needs ", n_prog, " qubits but machine has ",
                 n_hw);

    ProgramGraph pg(prog);
    const Machine &machine_ = machine; // keep body uniform below
    const auto &cal = machine_.cal();
    std::vector<HwQubit> layout(n_prog, kInvalidQubit);
    std::vector<bool> used(n_hw, false);

    // Work queue of edges in descending weight.
    std::vector<ProgramEdge> edges = pg.sortedEdgesByWeight();
    std::vector<bool> done(edges.size(), false);
    size_t remaining = edges.size();

    auto attach_endpoint = [&](ProgQubit q) {
        std::vector<std::pair<HwQubit, int>> placed_nbrs;
        for (ProgQubit nbr : pg.neighbors(q))
            if (layout[nbr] != kInvalidQubit)
                placed_nbrs.push_back({layout[nbr],
                                       pg.edgeWeight(q, nbr)});
        HwQubit loc = bestAttachedLocation(machine_, placed_nbrs, used);
        QC_ASSERT(loc != kInvalidQubit, "no free hardware qubit left");
        layout[q] = loc;
        used[loc] = true;
    };

    while (remaining > 0) {
        // Prefer the heaviest edge with at least one placed endpoint;
        // otherwise start a new component with the heaviest edge.
        size_t pick = edges.size();
        for (size_t i = 0; i < edges.size(); ++i) {
            if (done[i])
                continue;
            bool touched = layout[edges[i].a] != kInvalidQubit ||
                           layout[edges[i].b] != kInvalidQubit;
            if (touched) {
                pick = i;
                break;
            }
            if (pick == edges.size())
                pick = i;
        }
        const ProgramEdge &e = edges[pick];
        done[pick] = true;
        --remaining;

        bool a_placed = layout[e.a] != kInvalidQubit;
        bool b_placed = layout[e.b] != kInvalidQubit;
        if (a_placed && b_placed)
            continue;

        if (!a_placed && !b_placed) {
            // Fresh component: best free hardware edge.
            double best_score =
                -std::numeric_limits<double>::infinity();
            HwQubit best_a = kInvalidQubit, best_b = kInvalidQubit;
            for (const auto &he : machine_.topo().edges()) {
                if (used[he.a] || used[he.b])
                    continue;
                EdgeId id = machine_.topo().edgeBetween(he.a, he.b);
                double score = std::log(cal.cnotReliability(id)) +
                               std::log(cal.readoutReliability(he.a)) +
                               std::log(cal.readoutReliability(he.b));
                if (score > best_score) {
                    best_score = score;
                    best_a = he.a;
                    best_b = he.b;
                }
            }
            // Orientation: the endpoint with more readouts gets the
            // better readout qubit.
            ProgQubit hi = pg.readoutCount(e.a) >= pg.readoutCount(e.b)
                               ? e.a
                               : e.b;
            ProgQubit lo = hi == e.a ? e.b : e.a;
            if (best_a == kInvalidQubit) {
                // No two free qubits are coupled any more (a nearly
                // full machine): put the endpoints on free qubits
                // apart and let routing connect them.
                HwQubit loc = bestFreeReadout(machine_, used);
                QC_ASSERT(loc != kInvalidQubit,
                          "no free hardware qubit left");
                layout[hi] = loc;
                used[loc] = true;
                attach_endpoint(lo);
                continue;
            }
            if (cal.readoutReliability(best_a) >=
                cal.readoutReliability(best_b)) {
                layout[hi] = best_a;
                layout[lo] = best_b;
            } else {
                layout[hi] = best_b;
                layout[lo] = best_a;
            }
            used[best_a] = used[best_b] = true;
        } else if (a_placed) {
            attach_endpoint(e.b);
        } else {
            attach_endpoint(e.a);
        }
    }

    // Qubits not involved in any CNOT: best free readout locations.
    for (ProgQubit q = 0; q < n_prog; ++q) {
        if (layout[q] != kInvalidQubit)
            continue;
        HwQubit loc = kInvalidQubit;
        double best_rel = -1.0;
        for (HwQubit h = 0; h < n_hw; ++h) {
            if (used[h])
                continue;
            double rel = cal.readoutReliability(h);
            if (rel > best_rel) {
                best_rel = rel;
                loc = h;
            }
        }
        QC_ASSERT(loc != kInvalidQubit, "no free hardware qubit left");
        layout[q] = loc;
        used[loc] = true;
    }

    return layout;
}

} // namespace qc
