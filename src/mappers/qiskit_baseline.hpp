/**
 * @file
 * Calibration-blind baseline modelling the IBM Qiskit 0.5.7 mapper the
 * paper compares against (Sec. 7, Fig. 8a): program qubits are placed
 * in lexicographic order onto hardware qubits without consulting CNOT
 * or readout error rates, and CNOTs between non-adjacent qubits are
 * routed along fixed shortest paths.
 */

#ifndef QC_MAPPERS_QISKIT_BASELINE_HPP
#define QC_MAPPERS_QISKIT_BASELINE_HPP

#include "mappers/mapper.hpp"

namespace qc {

/**
 * Lexicographic (trivial) placement: program qubit i -> hardware
 * qubit i, exactly what the paper observed Qiskit 0.5.7 doing. Also
 * the SMT bundles' fallback layout and SABRE's unseeded start.
 */
std::vector<HwQubit> qiskitTrivialLayout(const Circuit &prog);

/**
 * Fixed row-first shortest routes: junction 0 for every CNOT, -1 for
 * other gates (no calibration input).
 */
std::vector<int> qiskitRowFirstJunctions(const Circuit &prog);

} // namespace qc

#endif // QC_MAPPERS_QISKIT_BASELINE_HPP
