/**
 * @file
 * SMT-based optimal bundles: T-SMT, T-SMT* and R-SMT* (paper Sec. 4).
 *
 * All three share the Z3 constraint model in solver/smt_model.hpp and
 * differ in objective and calibration use:
 *  - T-SMT   minimizes duration with static durations and the
 *            1000-slot average coherence bound,
 *  - T-SMT*  minimizes duration with calibrated durations and
 *            per-qubit coherence windows,
 *  - R-SMT*  maximizes the weighted log-reliability (Eq. 12) under
 *            the one-bend-path policy.
 */

#ifndef QC_MAPPERS_SMT_MAPPER_HPP
#define QC_MAPPERS_SMT_MAPPER_HPP

#include "mappers/mapper.hpp"
#include "route/routing.hpp"
#include "solver/smt_model.hpp"

namespace qc {

/** The three SMT rows of Table 1. */
enum class SmtVariant {
    TSmt,     ///< duration objective, calibration-unaware
    TSmtStar, ///< duration objective, calibration-aware
    RSmtStar, ///< reliability objective, calibration-aware
};

const char *smtVariantName(SmtVariant v);

/** Configuration of one SMT bundle (passes::smt). */
struct SmtMapperOptions
{
    SmtVariant variant = SmtVariant::RSmtStar;

    /** Routing policy (RR or 1BP); R-SMT* forces 1BP per the paper. */
    RoutingPolicy policy = RoutingPolicy::OneBendPath;

    /** Eq. 12 readout weight omega (R-SMT* only). */
    double readoutWeight = 0.5;

    /** Z3 budget; the best model found so far is used on timeout. */
    unsigned timeoutMs = 60'000;

    /**
     * Encode scheduling/routing jointly with placement (the full
     * paper formulation). Reliability solves may disable it for
     * scalability sweeps; duration solves always encode jointly.
     */
    bool jointScheduling = true;
};

/**
 * Largest CNOT count for which R-SMT* keeps the joint scheduling
 * encoding; beyond it, placement+junctions are solved exactly and the
 * list scheduler realizes start times (same objective value).
 */
inline constexpr int kJointSchedulingCnotLimit = 12;

/**
 * Display name for an SMT configuration ("R-SMT* w=0.5",
 * "T-SMT 1BP", ...) — the mapperName the SMT bundles report.
 */
std::string smtMapperDisplayName(const SmtMapperOptions &options);

/**
 * Normalize bundle-level options: R-SMT* performs reliability
 * optimization under one-bend paths (paper Sec. 4.4), so its policy
 * is forced to 1BP here — the single place the rule lives, shared by
 * the SMT placement pass and the pipeline bundles.
 */
SmtMapperOptions effectiveSmtOptions(SmtMapperOptions options);

/**
 * Translate bundle-level options into the Z3 model configuration,
 * including the R-SMT* joint-scheduling escape hatch for programs
 * beyond kJointSchedulingCnotLimit CNOTs (the SMT placement pass).
 */
SmtModelOptions smtModelOptionsFor(const SmtMapperOptions &options,
                                   const Circuit &prog);

} // namespace qc

#endif // QC_MAPPERS_SMT_MAPPER_HPP
