/**
 * @file
 * Noise-aware greedy heuristics GreedyV* and GreedyE* (paper Sec. 5).
 *
 * Both precompute Dijkstra most-reliable paths between all hardware
 * qubit pairs (edge weights -log(1 - cnot_err)), place qubits greedily
 * using the program interaction graph, schedule with the
 * earliest-ready-gate-first policy and route along the precomputed
 * paths.
 */

#ifndef QC_MAPPERS_GREEDY_MAPPER_HPP
#define QC_MAPPERS_GREEDY_MAPPER_HPP

#include "mappers/mapper.hpp"

namespace qc {

/**
 * Shared placement utility: the free hardware location minimizing the
 * weighted sum of most-reliable-path costs to the placed neighbors of
 * program qubit q (ties: better readout, then lower id). Returns
 * kInvalidQubit if no location is free.
 */
HwQubit bestAttachedLocation(const Machine &machine,
                             const std::vector<std::pair<HwQubit, int>>
                                 &placed_neighbors,
                             const std::vector<bool> &used);

/**
 * GreedyE*'s placement: heaviest-edge-first placement of the program
 * interaction graph onto the machine (Sec. 5.2). The heaviest edge
 * goes to the hardware edge with maximal combined CNOT and readout
 * reliability, then unmapped endpoints are attached to maximize path
 * reliability to their placed neighbors. The GreedyE* and
 * GreedyE*+track bundles place with it, and SABRE seeds from it.
 */
std::vector<HwQubit> greedyEdgePlacement(const Machine &machine,
                                         const Circuit &prog);

/**
 * GreedyV*'s placement: descending CNOT-degree placement of program
 * qubits (Sec. 5.1). The first qubit goes to the best-readout
 * high-degree hardware location, each subsequent qubit to the free
 * location with the most reliable paths to its already-placed
 * neighbors.
 */
std::vector<HwQubit> greedyVertexPlacement(const Machine &machine,
                                           const Circuit &prog);

} // namespace qc

#endif // QC_MAPPERS_GREEDY_MAPPER_HPP
