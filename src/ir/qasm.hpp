/**
 * @file
 * OpenQASM 2.0 emitter and parser for the gate subset used by the
 * compiler. Emission is the executable interface the paper targets
 * (compiled programs were shipped to IBMQ16 as OpenQASM); the parser
 * doubles as a lightweight textual frontend and enables round-trip
 * testing.
 */

#ifndef QC_IR_QASM_HPP
#define QC_IR_QASM_HPP

#include <string>

#include "ir/circuit.hpp"

namespace qc {

/**
 * Emit OpenQASM 2.0 text for a circuit.
 *
 * Swap pseudo-gates are expanded into their 3-CNOT implementation
 * (paper footnote 2) so the output only uses operations IBMQ16-class
 * hardware implements natively.
 */
std::string emitQasm(const Circuit &circuit);

/**
 * Parse OpenQASM 2.0 text into a Circuit.
 *
 * Supports the subset the emitter produces: a single qreg/creg pair,
 * the gates of qc::Op, barrier (ignored), and comments. Throws
 * qc::FatalError with a line number on malformed input, including
 * operands outside the declared registers and a two-qubit gate whose
 * operands are the same qubit.
 */
Circuit parseQasm(const std::string &text, const std::string &name = "qasm");

} // namespace qc

#endif // QC_IR_QASM_HPP
