/**
 * @file
 * SABRE-style iterative placement refinement (Li, Ding & Xie,
 * ASPLOS'19), adapted to the paper's noise-adaptive cost model.
 *
 * The paper's heuristics fix a placement once and route forward; this
 * pass instead *searches* for the initial layout: starting from a
 * greedy (or trivial) seed it routes the circuit forward with a
 * SABRE-style SWAP search, then routes the *reversed* circuit from the
 * drifted final layout — whose final layout is, by symmetry, an
 * initial layout tuned to the circuit's early gates — and iterates
 * that round trip, keeping the best candidate by predicted success
 * probability under the live-tracking router. Because the seed layout
 * is itself a candidate, the result never scores worse than the seed.
 *
 * The SWAP search scores each candidate exchange with a topology-hop
 * term over the front layer of the CNOT dependency DAG, a decayed
 * lookahead window over the CNOTs behind it, and a calibration
 * reliability term that steers movement off error-prone edges. All
 * tie-breaking is drawn from a seeded Rng stream, so the refinement is
 * fully deterministic (and therefore cacheable by the service's
 * fingerprint-keyed compile cache).
 *
 * Works on any Topology (grid, heavy-hex, ring, edge-list): the
 * search only consumes hop distances, coupling edges and calibration
 * tables.
 */

#ifndef QC_MAPPERS_SABRE_MAPPER_HPP
#define QC_MAPPERS_SABRE_MAPPER_HPP

#include "core/pipeline.hpp"
#include "mappers/mapper.hpp"

namespace qc {

/** SABRE refinement knobs. */
struct SabreOptions
{
    /** Forward+backward round trips over the circuit (>= 0). */
    int iterations = 3;

    /**
     * Size of the lookahead window: how many pending CNOTs beyond the
     * front layer contribute to a SWAP's score (>= 0; 0 = front layer
     * only).
     */
    int lookahead = 20;

    /**
     * Weight of the (normalized) lookahead term in the SWAP score
     * (finite).
     */
    double lookaheadWeight = 0.5;

    /** Per-rank geometric decay inside the lookahead window (>= 0). */
    double decay = 0.7;

    /**
     * Weight of the -log(swap-edge reliability) term: larger values
     * route movement around error-prone couplings at the cost of
     * extra hops (finite).
     */
    double reliabilityWeight = 0.05;

    /** Seed of the deterministic tie-break stream. */
    std::uint64_t seed = 20190131;

    /**
     * true  = seed round 0 with the GreedyE* placement (Sec. 5.2),
     * false = seed with the trivial lexicographic layout.
     */
    bool greedySeed = true;
};

/** Outcome of the refinement search (layout + its own score). */
struct SabrePlacementResult
{
    std::vector<HwQubit> layout;   ///< best initial placement found
    double predictedSuccess = 0.0; ///< its tracking-router prediction
    int roundTrips = 0;            ///< refinement iterations performed
};

/**
 * Run the full refinement search. Throws FatalError when the program
 * does not fit the machine (the shared placement contract), and
 * CancelledError at a round-trip boundary when `cancel` fires (a
 * partially-refined layout is never returned).
 */
SabrePlacementResult sabrePlacementDetailed(const Machine &machine,
                                            const Circuit &prog,
                                            const SabreOptions &options
                                            = {},
                                            const CancelToken *cancel
                                            = nullptr);

/** The refined initial layout alone (same contract as above). */
std::vector<HwQubit> sabrePlacement(const Machine &machine,
                                    const Circuit &prog,
                                    const SabreOptions &options = {});

/**
 * Sabre as a first-class placement stage: composes with every
 * routing/scheduling pass (the standard MapperKind::Sabre bundle
 * pairs it with the live-tracking scheduler, whose cost model the
 * refinement optimizes for).
 */
class SabrePlacementPass : public PlacementPass
{
  public:
    explicit SabrePlacementPass(SabreOptions options = {})
        : options_(options)
    {
    }

    std::string name() const override { return "Sabre"; }

    CompileStatus run(CompileContext &ctx) const override;

  private:
    SabreOptions options_;
};

} // namespace qc

#endif // QC_MAPPERS_SABRE_MAPPER_HPP
