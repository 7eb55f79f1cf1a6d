/**
 * @file
 * Gate-level intermediate representation.
 *
 * The IR mirrors the information the paper's backend consumes from the
 * ScaffCC/LLVM frontend: which qubits each operation touches and the
 * data dependencies between operations (implied by program order here).
 */

#ifndef QC_IR_GATE_HPP
#define QC_IR_GATE_HPP

#include <string>
#include <string_view>

#include "support/types.hpp"

namespace qc {

/**
 * Operation kinds supported by the IR.
 *
 * The single-qubit set {H, X, Y, Z, S, Sdg, T, Tdg} together with CNOT
 * is universal and covers every benchmark in the paper (Sec. 6 samples
 * synthetic circuits from exactly this set). Swap appears only in
 * hardware-level circuits produced by the router and expands to three
 * CNOTs on emission (paper footnote 2). Measure maps a qubit to a
 * classical bit.
 */
enum class Op {
    H,
    X,
    Y,
    Z,
    S,
    Sdg,
    T,
    Tdg,
    CNOT,
    Swap,
    Measure,
};

/** Number of qubit operands an op consumes. */
int opArity(Op op);

/** True for CNOT and Swap. */
bool opIsTwoQubit(Op op);

/** Lower-case OpenQASM mnemonic ("h", "cx", "swap", "measure"). */
const char *opName(Op op);

/** Parse an OpenQASM mnemonic; returns false if unknown. */
bool opFromName(std::string_view name, Op &out);

/**
 * One IR operation.
 *
 * For single-qubit gates only q0 is valid. For CNOT, q0 is the control
 * and q1 the target (the paper's "CNOT C, T" notation). For Measure,
 * q0 is the measured qubit and cbit the destination classical bit.
 */
struct Gate
{
    Op op = Op::H;
    int q0 = kInvalidQubit;
    int q1 = kInvalidQubit;
    int cbit = -1;

    bool isTwoQubit() const { return opIsTwoQubit(op); }
    bool isMeasure() const { return op == Op::Measure; }

    /** True if this gate acts on qubit q. */
    bool touches(int q) const;

    /** Human-readable form, e.g. "cx q1, q3". */
    std::string toString() const;
};

/** Structural equality (op + operands + cbit). */
bool operator==(const Gate &a, const Gate &b);

} // namespace qc

#endif // QC_IR_GATE_HPP
