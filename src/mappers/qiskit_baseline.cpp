#include "qiskit_baseline.hpp"

namespace qc {

std::vector<HwQubit>
qiskitTrivialLayout(const Circuit &prog)
{
    std::vector<HwQubit> layout(prog.numQubits());
    for (int q = 0; q < prog.numQubits(); ++q)
        layout[q] = q;
    return layout;
}

std::vector<int>
qiskitRowFirstJunctions(const Circuit &prog)
{
    std::vector<int> junctions(prog.size(), -1);
    for (size_t i = 0; i < prog.size(); ++i)
        if (prog.gate(i).op == Op::CNOT)
            junctions[i] = 0;
    return junctions;
}

} // namespace qc
