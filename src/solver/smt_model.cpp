#include "smt_model.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include <z3++.h>

#include "ir/dag.hpp"
#include "solver/bnb_placer.hpp"
#include "solver/objective.hpp"
#include "support/logging.hpp"

namespace qc {

namespace {

using Clock = std::chrono::steady_clock;

/** Per-CNOT symbolic bookkeeping shared by the constraint builders. */
struct CnotVars
{
    int gateIdx = -1;
    z3::expr tau;      ///< start time
    z3::expr delta;    ///< routed duration
    z3::expr junction; ///< Bool: true = bend at (x_c, y_t) (route 0)
    z3::expr cost;     ///< -scaledLog(EC), Reliability objective only
};

/** min/max of two int exprs via ite. */
z3::expr
zmin(const z3::expr &a, const z3::expr &b)
{
    return z3::ite(a <= b, a, b);
}

z3::expr
zmax(const z3::expr &a, const z3::expr &b)
{
    return z3::ite(a >= b, a, b);
}

/** Inclusive rectangle with symbolic corners. */
struct SymRect
{
    z3::expr x0, x1, y0, y1;

    static SymRect
    spanning(const z3::expr &xa, const z3::expr &ya, const z3::expr &xb,
             const z3::expr &yb)
    {
        return {zmin(xa, xb), zmax(xa, xb), zmin(ya, yb), zmax(ya, yb)};
    }
};

/** The paper's S(Ri, Rj) spatial-overlap predicate (Eq. 7). */
z3::expr
rectOverlap(const SymRect &a, const SymRect &b)
{
    return !(a.x0 > b.x1 || a.x1 < b.x0 || a.y0 > b.y1 || a.y1 < b.y0);
}

/** Remaining milliseconds before a deadline (at least 1). */
unsigned
remainingMs(Clock::time_point deadline)
{
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    return left > 1 ? static_cast<unsigned>(left) : 1u;
}

/**
 * The full model build + optimization loop. May throw z3::exception
 * from any context operation when the token's interrupt hook fires
 * outside a check() — the public wrapper below maps that to a
 * structured cancelled/error solution.
 */
SmtSolution
solveSmtMappingImpl(const Machine &machine, const Circuit &prog,
                    const SmtModelOptions &options)
{
    const auto &topo = machine.topo();
    const auto &cal = machine.cal();
    // Grids keep the paper's (x, y) coordinate encoding — rectangle
    // overlap is expressible symbolically (Eq. 7) and the historical
    // models stay bit-identical. Non-grid topologies use a single
    // location variable per program qubit; their routing non-overlap
    // is relaxed (see the non-overlap section below).
    const bool grid_encoding = topo.isGrid();
    const int rows = grid_encoding ? topo.rows() : 0;
    const int cols = grid_encoding ? topo.cols() : 0;
    const int n_hw = topo.numQubits();
    const int n_prog = prog.numQubits();

    if (n_prog > n_hw)
        QC_FATAL("program needs ", n_prog, " qubits but machine has ",
                 n_hw);

    const bool reliability =
        options.objective == SmtObjectiveKind::Reliability;
    // Eq. 12 weighs readouts by omega and CNOTs by 1 - omega: outside
    // [0, 1] one of the two terms would reward unreliable hardware.
    if (reliability &&
        !(options.readoutWeight >= 0.0 && options.readoutWeight <= 1.0))
        QC_FATAL("readout weight omega must be in [0, 1], got ",
                 options.readoutWeight);
    // The duration objective is meaningless without start times, so
    // joint scheduling is forced on for it.
    const bool joint = options.jointScheduling || !reliability;

    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::milliseconds(options.timeoutMs);

    // A cancelled solve keeps no model: the caller (portfolio racing)
    // declared it a loser, and a partial incumbent would only leak
    // timing-dependent results into deterministic selection.
    auto cancelled_solution = [&t0] {
        SmtSolution s;
        s.failure = SmtFailure::Cancelled;
        s.status = "cancelled";
        s.solveSeconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        return s;
    };
    if (isCancelled(options.cancel))
        return cancelled_solution();

    z3::context ctx;
    z3::solver solver(ctx);
    // Polling alone cannot stop a thread parked inside solver.check(),
    // so the token also hooks z3's soft interrupt for the lifetime of
    // this solve (the guard's destructor waits out an in-flight hook).
    CancelCallbackGuard interrupt_guard(options.cancel,
                                        [&ctx] { ctx.interrupt(); });
    // z3 reads a 0 ms timeout as no timer at all, so a cap that rounds
    // down to 0 (timeoutMs / 4 of a tiny budget) still gets 1 ms.
    auto set_budget = [&](unsigned cap_ms) {
        z3::params p(ctx);
        p.set("timeout",
              std::max(1u, std::min(remainingMs(deadline), cap_ms)));
        solver.set(p);
    };

    // ---- Mapping variables and constraints 1-2 -------------------
    std::vector<z3::expr> qx, qy;  // grid encoding
    std::vector<z3::expr> qloc;    // non-grid encoding
    if (grid_encoding) {
        for (int q = 0; q < n_prog; ++q) {
            qx.push_back(
                ctx.int_const(("x_" + std::to_string(q)).c_str()));
            qy.push_back(
                ctx.int_const(("y_" + std::to_string(q)).c_str()));
            solver.add(qx[q] >= 0 && qx[q] < rows);
            solver.add(qy[q] >= 0 && qy[q] < cols);
        }
        for (int a = 0; a < n_prog; ++a)
            for (int b = a + 1; b < n_prog; ++b)
                solver.add(qx[a] != qx[b] || qy[a] != qy[b]);
    } else {
        for (int q = 0; q < n_prog; ++q) {
            qloc.push_back(
                ctx.int_const(("loc_" + std::to_string(q)).c_str()));
            solver.add(qloc[q] >= 0 && qloc[q] < n_hw);
        }
        for (int a = 0; a < n_prog; ++a)
            for (int b = a + 1; b < n_prog; ++b)
                solver.add(qloc[a] != qloc[b]);
    }

    // Location predicate: program qubit q sits on hardware qubit h.
    auto at = [&](int q, HwQubit h) {
        if (!grid_encoding)
            return qloc[q] == h;
        GridPos p = topo.posOf(h);
        return qx[q] == p.x && qy[q] == p.y;
    };

    // Read a placement back out of a model (either encoding).
    auto layout_of = [&](z3::model &m) {
        std::vector<HwQubit> layout(n_prog, kInvalidQubit);
        for (int q = 0; q < n_prog; ++q) {
            if (grid_encoding) {
                int x = m.eval(qx[q], true).get_numeral_int();
                int y = m.eval(qy[q], true).get_numeral_int();
                layout[q] = topo.qubitAt(x, y);
            } else {
                layout[q] =
                    m.eval(qloc[q], true).get_numeral_int();
            }
        }
        return layout;
    };

    // ---- Duration / reliability tables ---------------------------
    auto route_duration = [&](HwQubit h1, HwQubit h2, int j) -> Timeslot {
        if (!options.calibrationAware) {
            return machine.uniformRouteDuration(topo.distance(h1, h2));
        }
        int nj = machine.numOneBendPaths(h1, h2);
        return machine.oneBendPath(h1, h2, std::min(j, nj - 1)).duration;
    };
    auto route_cost = [&](HwQubit h1, HwQubit h2, int j) -> std::int64_t {
        int nj = machine.numOneBendPaths(h1, h2);
        double rel =
            machine.oneBendPath(h1, h2, std::min(j, nj - 1)).reliability;
        return -scaledLog(rel);
    };

    // Coherence windows (constraint 6, or the static bound 4).
    auto coherence = [&](HwQubit h) -> Timeslot {
        return options.calibrationAware ? cal.coherenceSlots(h)
                                        : Machine::kStaticCoherenceSlots;
    };

    DependencyDag dag(prog);
    const int n_gates = static_cast<int>(prog.size());

    // ---- Per-gate variables --------------------------------------
    std::vector<CnotVars> cnots;
    std::vector<z3::expr> tau;     // start time per gate
    std::vector<z3::expr> dur;     // duration expr per gate
    std::vector<z3::expr> ro_cost; // readout cost per measure gate

    const bool use_junction_var =
        options.policy == RoutingPolicy::OneBendPath;

    for (int i = 0; i < n_gates; ++i) {
        const Gate &g = prog.gate(i);
        std::string suffix = std::to_string(i);
        z3::expr t = ctx.int_const(("tau_" + suffix).c_str());
        if (joint)
            solver.add(t >= 0);
        tau.push_back(t);

        if (g.op == Op::CNOT) {
            CnotVars cv{
                i,
                t,
                ctx.int_const(("delta_" + suffix).c_str()),
                ctx.bool_const(("jb_" + suffix).c_str()),
                ctx.int_const(("cost_" + suffix).c_str()),
            };
            // Implication tables over ordered hardware pairs
            // (constraints 5, 6, 11).
            for (HwQubit h1 = 0; h1 < n_hw; ++h1) {
                for (HwQubit h2 = 0; h2 < n_hw; ++h2) {
                    if (h1 == h2)
                        continue;
                    z3::expr cond = at(g.q0, h1) && at(g.q1, h2);
                    if (joint) {
                        Timeslot d0 = route_duration(h1, h2, 0);
                        Timeslot d1 = route_duration(h1, h2, 1);
                        if (use_junction_var && d0 != d1) {
                            solver.add(z3::implies(
                                cond && cv.junction,
                                cv.delta == ctx.int_val(
                                                static_cast<std::int64_t>(
                                                    d0))));
                            solver.add(z3::implies(
                                cond && !cv.junction,
                                cv.delta == ctx.int_val(
                                                static_cast<std::int64_t>(
                                                    d1))));
                        } else {
                            Timeslot d = std::min(d0, d1);
                            solver.add(z3::implies(
                                cond,
                                cv.delta == ctx.int_val(
                                                static_cast<std::int64_t>(
                                                    d))));
                        }
                        Timeslot window =
                            std::min(coherence(h1), coherence(h2));
                        solver.add(z3::implies(
                            cond, cv.tau + cv.delta <=
                                      ctx.int_val(
                                          static_cast<std::int64_t>(
                                              window))));
                    }
                    if (reliability) {
                        std::int64_t c0 = route_cost(h1, h2, 0);
                        std::int64_t c1 = route_cost(h1, h2, 1);
                        if (use_junction_var && c0 != c1) {
                            solver.add(z3::implies(
                                cond && cv.junction,
                                cv.cost == ctx.int_val(c0)));
                            solver.add(z3::implies(
                                cond && !cv.junction,
                                cv.cost == ctx.int_val(c1)));
                        } else {
                            solver.add(z3::implies(
                                cond, cv.cost == ctx.int_val(
                                                     std::min(c0, c1))));
                        }
                    }
                }
            }
            dur.push_back(cv.delta);
            cnots.push_back(cv);
        } else {
            Timeslot d = g.isMeasure() ? cal.readoutDuration
                                       : cal.oneQubitDuration;
            dur.push_back(ctx.int_val(static_cast<std::int64_t>(d)));
            if (joint) {
                // Coherence for single-qubit / readout operations.
                for (HwQubit h = 0; h < n_hw; ++h) {
                    solver.add(z3::implies(
                        at(g.q0, h),
                        t + ctx.int_val(static_cast<std::int64_t>(d)) <=
                            ctx.int_val(static_cast<std::int64_t>(
                                coherence(h)))));
                }
            }
            if (reliability && g.isMeasure()) {
                z3::expr rc = ctx.int_const(
                    ("rocost_" + std::to_string(i)).c_str());
                for (HwQubit h = 0; h < n_hw; ++h) {
                    std::int64_t c =
                        -scaledLog(cal.readoutReliability(h));
                    solver.add(
                        z3::implies(at(g.q0, h), rc == ctx.int_val(c)));
                }
                ro_cost.push_back(rc);
            }
        }
    }

    // ---- Dependencies (constraint 3) ------------------------------
    if (joint) {
        for (int i = 0; i < n_gates; ++i)
            for (int p : dag.preds(i))
                solver.add(tau[i] >= tau[p] + dur[p]);
    }

    // ---- Routing non-overlap (constraints 7-9) --------------------
    //
    // Route footprints on an arbitrary graph depend on the placement,
    // so the exact symbolic overlap predicate of the grid encoding
    // would blow up combinatorially. Non-grid solves instead RELAX
    // the constraint away entirely: dependency and coherence
    // constraints still hold, start times become lower bounds, and
    // the list-scheduler replay of the (layout, junctions) solution
    // enforces real footprint non-overlap afterwards. A relaxation
    // (rather than conservative pairwise serialization) is the sound
    // direction — serializing every concurrent-capable pair can push
    // the makespan past a coherence window and flip a feasible
    // problem to unsat.
    if (joint && grid_encoding) {
        struct CnotRegion { std::vector<SymRect> rects; };
        std::vector<CnotRegion> regions;
        for (const auto &cv : cnots) {
            const Gate &g = prog.gate(cv.gateIdx);
            const z3::expr &xc = qx[g.q0], &yc = qy[g.q0];
            const z3::expr &xt = qx[g.q1], &yt = qy[g.q1];
            CnotRegion region;
            if (options.policy == RoutingPolicy::RectangleReservation) {
                region.rects.push_back(
                    SymRect::spanning(xc, yc, xt, yt));
            } else {
                z3::expr jx = z3::ite(cv.junction, xc, xt);
                z3::expr jy = z3::ite(cv.junction, yt, yc);
                region.rects.push_back(SymRect::spanning(xc, yc, jx, jy));
                region.rects.push_back(SymRect::spanning(jx, jy, xt, yt));
            }
            regions.push_back(std::move(region));
        }
        for (size_t i = 0; i < cnots.size(); ++i) {
            for (size_t j = i + 1; j < cnots.size(); ++j) {
                int gi = cnots[i].gateIdx;
                int gj = cnots[j].gateIdx;
                if (dag.dependsOn(gj, gi) || dag.dependsOn(gi, gj))
                    continue; // already ordered in time
                z3::expr space = ctx.bool_val(false);
                for (const auto &ra : regions[i].rects)
                    for (const auto &rb : regions[j].rects)
                        space = space || rectOverlap(ra, rb);
                z3::expr apart =
                    cnots[i].tau >= cnots[j].tau + cnots[j].delta ||
                    cnots[j].tau >= cnots[i].tau + cnots[i].delta;
                solver.add(z3::implies(space, apart));
            }
        }
    }

    // ---- Objective expression --------------------------------------
    // Both objectives are minimized: the scaled weighted negative
    // log-reliability (Eq. 12) or the makespan.
    const std::int64_t w_int = static_cast<std::int64_t>(
        std::llround(options.readoutWeight * 1000.0));
    z3::expr objective = ctx.int_const("objective");
    if (reliability) {
        z3::expr total = ctx.int_val(0);
        for (const auto &rc : ro_cost)
            total = total + ctx.int_val(w_int) * rc;
        for (const auto &cv : cnots)
            total = total + ctx.int_val(1000 - w_int) * cv.cost;
        solver.add(objective == total);
    } else {
        for (int i = 0; i < n_gates; ++i)
            solver.add(objective >= tau[i] + dur[i]);
    }

    // ---- Optimization loop ------------------------------------------
    // Minimize `objective` with plain sat queries: a warm lower bound
    // (branch-and-bound placement optimum for reliability; DAG critical
    // path for duration) often proves optimality in one query, and a
    // binary-search descent handles the rest.
    SmtSolution sol;
    std::optional<z3::model> best_model;
    std::int64_t best_value = 0;
    bool proven = false;

    // Model building is cheap but the BnB warm start below is not:
    // checkpoint before committing to it.
    if (isCancelled(options.cancel))
        return cancelled_solution();

    // Lower bound.
    std::int64_t lower = 0;
    bool lower_is_tight = false;
    std::vector<HwQubit> bnb_layout;
    if (reliability) {
        BnbOptions bnb_opts;
        bnb_opts.readoutWeight = options.readoutWeight;
        bnb_opts.nodeLimit = 2'000'000;
        bnb_opts.deadline = deadline;
        bnb_opts.cancel = options.cancel;
        BnbPlacer bnb(machine, prog, bnb_opts);
        BnbResult br = bnb.solve();
        if (isCancelled(options.cancel))
            return cancelled_solution();
        // Integer cost of the BnB layout under the model's tables.
        std::int64_t cost = 0;
        for (int i = 0; i < n_gates; ++i) {
            const Gate &g = prog.gate(i);
            if (g.op == Op::CNOT) {
                HwQubit c = br.layout[g.q0];
                HwQubit t = br.layout[g.q1];
                cost += (1000 - w_int) *
                        std::min(route_cost(c, t, 0), route_cost(c, t, 1));
            } else if (g.isMeasure()) {
                cost += w_int * -scaledLog(cal.readoutReliability(
                                    br.layout[g.q0]));
            }
        }
        lower = cost;
        lower_is_tight = br.optimal;
        bnb_layout = br.layout;
    } else {
        // Critical path with the smallest possible per-gate durations.
        Timeslot min_cnot = std::numeric_limits<Timeslot>::max();
        for (HwQubit a = 0; a < n_hw; ++a)
            for (HwQubit b : topo.neighbors(a))
                min_cnot = std::min(min_cnot, route_duration(a, b, 0));
        std::vector<Timeslot> durations(prog.size());
        for (size_t i = 0; i < prog.size(); ++i) {
            const Gate &g = prog.gate(i);
            durations[i] = g.op == Op::CNOT ? min_cnot
                           : g.isMeasure()  ? cal.readoutDuration
                                            : cal.oneQubitDuration;
        }
        lower = dag.criticalPath(durations);
        lower_is_tight = false; // placement may not achieve it
    }

    auto check_with_bound = [&](std::optional<std::int64_t> bound,
                                unsigned cap_ms) -> z3::check_result {
        if (isCancelled(options.cancel)) {
            sol.status = "cancelled";
            sol.failure = SmtFailure::Cancelled;
            return z3::unknown;
        }
        solver.push();
        if (bound)
            solver.add(objective <= ctx.int_val(*bound));
        set_budget(cap_ms);
        z3::check_result r;
        try {
            r = solver.check();
        } catch (const z3::exception &e) {
            // An interrupted check may surface as a z3 exception; the
            // token, not the exception text, is authoritative.
            if (isCancelled(options.cancel)) {
                sol.status = "cancelled";
                sol.failure = SmtFailure::Cancelled;
            } else {
                sol.status = std::string("z3 exception: ") + e.msg();
                sol.failure = SmtFailure::Error;
            }
            solver.pop();
            return z3::unknown;
        }
        if (isCancelled(options.cancel)) {
            // Interrupted mid-check: whatever z3 answered is partial
            // timing-dependent state — drop it.
            sol.status = "cancelled";
            sol.failure = SmtFailure::Cancelled;
            solver.pop();
            return z3::unknown;
        }
        if (r == z3::sat) {
            best_model = solver.get_model();
            if (reliability) {
                best_value = best_model->eval(objective, true)
                                 .get_numeral_int64();
            } else {
                // The makespan variable is only lower-bounded; read
                // the realized maximum finish time from the model.
                std::int64_t ms = 0;
                for (int i = 0; i < n_gates; ++i) {
                    std::int64_t fin =
                        best_model->eval(tau[i] + dur[i], true)
                            .get_numeral_int64();
                    ms = std::max(ms, fin);
                }
                best_value = ms;
            }
        }
        solver.pop();
        return r;
    };

    // Fast path: pin the placement to the branch-and-bound optimum
    // and ask Z3 to verify it (and, in joint mode, to schedule it).
    // A sat answer at the provably-tight bound is an optimality
    // certificate obtained in a near-trivial query.
    if (lower_is_tight && !bnb_layout.empty()) {
        solver.push();
        for (int q = 0; q < n_prog; ++q)
            solver.add(at(q, bnb_layout[q]));
        z3::check_result pinned =
            check_with_bound(lower, options.timeoutMs / 4);
        solver.pop();
        if (pinned == z3::sat) {
            sol.optimal = true;
            sol.status = "optimal";
            z3::model &m = *best_model;
            sol.layout = layout_of(m);
            sol.junctions.assign(n_gates, -1);
            for (const auto &cv : cnots) {
                z3::expr jv = m.eval(cv.junction, true);
                sol.junctions[cv.gateIdx] = jv.is_true() ? 0 : 1;
            }
            sol.feasible = true;
            sol.solveSeconds = std::chrono::duration<double>(
                                   Clock::now() - t0)
                                   .count();
            return sol;
        }
        // Otherwise: the BnB placement is schedule-infeasible (or the
        // query was too hard); fall through to the general flow.
    }

    // Try to hit the lower bound directly, but keep at least half the
    // budget in reserve so a feasible model is always recovered even
    // when the bound-constrained query is hard.
    z3::check_result first = check_with_bound(
        lower_is_tight ? std::optional<std::int64_t>(lower)
                       : std::nullopt,
        options.timeoutMs / 2);
    if (first == z3::sat && lower_is_tight) {
        proven = true; // matches a provable lower bound
    } else {
        if (first != z3::sat) {
            // Either the tight bound is schedule-infeasible or we had
            // no tight bound; solve unbounded first.
            if (lower_is_tight && first == z3::unsat)
                lower += 1;
            z3::check_result r =
                check_with_bound(std::nullopt, options.timeoutMs);
            if (r == z3::unsat) {
                sol.status = "unsat";
                sol.failure = SmtFailure::Unsat;
                sol.solveSeconds = std::chrono::duration<double>(
                                       Clock::now() - t0)
                                       .count();
                return sol;
            }
            if (r != z3::sat && !best_model) {
                if (sol.status.empty())
                    sol.status = "unknown";
                if (sol.failure == SmtFailure::None)
                    sol.failure = SmtFailure::Timeout;
                sol.solveSeconds = std::chrono::duration<double>(
                                       Clock::now() - t0)
                                       .count();
                return sol;
            }
        }
        // Binary-search descent between lower and the incumbent.
        std::int64_t lo = lower;
        std::int64_t hi = best_value;
        proven = true;
        while (lo < hi && Clock::now() < deadline) {
            std::int64_t mid = lo + (hi - lo) / 2;
            z3::check_result r =
                check_with_bound(mid, options.timeoutMs);
            if (r == z3::sat) {
                hi = best_value;
            } else if (r == z3::unsat) {
                lo = mid + 1;
            } else {
                proven = false; // timed out mid-search
                break;
            }
        }
        if (Clock::now() >= deadline && lo < best_value)
            proven = false;
    }

    // Cancellation overrides any incumbent found along the way.
    if (sol.failure == SmtFailure::Cancelled ||
        isCancelled(options.cancel))
        return cancelled_solution();

    sol.optimal = proven;
    if (sol.status.empty())
        sol.status = proven ? "optimal" : "feasible";

    if (best_model) {
        z3::model &m = *best_model;
        sol.layout = layout_of(m);
        sol.junctions.assign(n_gates, -1);
        for (const auto &cv : cnots) {
            z3::expr jv = m.eval(cv.junction, true);
            sol.junctions[cv.gateIdx] = jv.is_true() ? 0 : 1;
        }
        sol.feasible = true;
    }

    sol.solveSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return sol;
}

} // namespace

SmtSolution
solveSmtMapping(const Machine &machine, const Circuit &prog,
                const SmtModelOptions &options)
{
    const auto t0 = Clock::now();
    try {
        return solveSmtMappingImpl(machine, prog, options);
    } catch (const z3::exception &e) {
        // The interrupt hook can fire while the model is still being
        // BUILT (solver.add on an interrupted context throws), not
        // just inside check(). The token, not the exception text, is
        // authoritative; a genuine Z3 failure stays a structured
        // error instead of escaping the solve.
        SmtSolution sol;
        sol.solveSeconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (isCancelled(options.cancel)) {
            sol.failure = SmtFailure::Cancelled;
            sol.status = "cancelled";
        } else {
            sol.failure = SmtFailure::Error;
            sol.status = std::string("z3 exception: ") + e.msg();
        }
        return sol;
    }
}

} // namespace qc
