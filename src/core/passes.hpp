/**
 * @file
 * The concrete compiler passes: every Table 1 stage as a composable
 * pipeline element, plus factories for fluent PipelineBuilder use.
 *
 * Placement passes wrap the free placement functions in mappers/
 * (qiskitTrivialLayout, greedyVertexPlacement, greedyEdgePlacement,
 * sabrePlacementDetailed) and solveSmtMapping in solver/.
 */

#ifndef QC_CORE_PASSES_HPP
#define QC_CORE_PASSES_HPP

#include <memory>

#include "core/pipeline.hpp"
#include "mappers/sabre_mapper.hpp"
#include "mappers/smt_mapper.hpp"
#include "route/routing.hpp"
#include "sched/tracking_router.hpp"

namespace qc::passes {

/** Qiskit 0.5.7 baseline: lexicographic layout, row-first routes. */
std::unique_ptr<PlacementPass> qiskitBaseline();

/** GreedyV*: descending CNOT-degree placement (paper Sec. 5.1). */
std::unique_ptr<PlacementPass> greedyVertex();

/** GreedyE*: heaviest-edge-first placement (paper Sec. 5.2). */
std::unique_ptr<PlacementPass> greedyEdge();

/**
 * SABRE-style iterative placement refinement: forward/backward
 * routing round trips over the CNOT dependency frontier, keeping the
 * best initial layout by tracking-router predicted success (see
 * mappers/sabre_mapper.hpp). Composes with any routing/scheduling
 * pass; the MapperKind::Sabre bundle pairs it with the live-tracking
 * scheduler.
 */
std::unique_ptr<PlacementPass> sabrePlacement(SabreOptions options = {});

/**
 * SMT placement (T-SMT / T-SMT* / R-SMT*, paper Sec. 4). On solver
 * failure it installs the trivial fallback layout and reports a
 * degraded solver-timeout / infeasible status — the pipeline still
 * produces a runnable program.
 */
std::unique_ptr<PlacementPass> smt(SmtMapperOptions options);

/**
 * Standard route selection: reserve under `policy`; if the placement
 * stage fixed per-gate junctions (SMT solutions, Qiskit's row-first
 * routes) and the policy is 1BP, honor them, otherwise pick routes by
 * `select`. `reference_scheduler` pins the downstream list scheduler
 * to its legacy full-scan implementation (the bit-identity oracle;
 * see SchedulerOptions::referenceMode).
 */
std::unique_ptr<RoutingPass>
routeSelection(RoutingPolicy policy, RouteSelect select,
               bool calibrated_durations = true,
               bool reference_scheduler = false);

/**
 * Marker for schedulers that route live (the tracking router): the
 * routing stage carries no precomputed configuration because routes
 * are chosen while the layout drifts.
 */
std::unique_ptr<RoutingPass> liveRouting();

/** Earliest-ready-gate-first list scheduler with reservations. */
std::unique_ptr<SchedulingPass> listScheduling();

/**
 * Live-tracking scheduler: one-way SWAP chains, drifting layout.
 * Predicts reliability inline (the emitted hardware ops are the
 * ground truth), so the prediction stage becomes a no-op.
 */
std::unique_ptr<SchedulingPass>
trackingScheduling(TrackingOptions options = {});

/**
 * Route-exact reliability prediction: per-CNOT routed EC values and
 * readout reliabilities under the scheduler's own route choices
 * (predictLogReliability).
 */
std::unique_ptr<PredictionPass> reliabilityPrediction();

} // namespace qc::passes

#endif // QC_CORE_PASSES_HPP
