#include "gate.hpp"

#include <sstream>

#include "support/logging.hpp"

namespace qc {

int
opArity(Op op)
{
    return opIsTwoQubit(op) ? 2 : 1;
}

bool
opIsTwoQubit(Op op)
{
    return op == Op::CNOT || op == Op::Swap;
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::H: return "h";
      case Op::X: return "x";
      case Op::Y: return "y";
      case Op::Z: return "z";
      case Op::S: return "s";
      case Op::Sdg: return "sdg";
      case Op::T: return "t";
      case Op::Tdg: return "tdg";
      case Op::CNOT: return "cx";
      case Op::Swap: return "swap";
      case Op::Measure: return "measure";
    }
    QC_PANIC("unknown op");
}

bool
opFromName(std::string_view name, Op &out)
{
    static constexpr struct { std::string_view n; Op op; } table[] = {
        {"h", Op::H}, {"x", Op::X}, {"y", Op::Y}, {"z", Op::Z},
        {"s", Op::S}, {"sdg", Op::Sdg}, {"t", Op::T}, {"tdg", Op::Tdg},
        {"cx", Op::CNOT}, {"CX", Op::CNOT}, {"swap", Op::Swap},
        {"measure", Op::Measure},
    };
    for (const auto &e : table) {
        if (name == e.n) {
            out = e.op;
            return true;
        }
    }
    return false;
}

bool
Gate::touches(int q) const
{
    if (q0 == q)
        return true;
    return isTwoQubit() && q1 == q;
}

std::string
Gate::toString() const
{
    std::ostringstream oss;
    oss << opName(op) << " q" << q0;
    if (isTwoQubit())
        oss << ", q" << q1;
    if (isMeasure())
        oss << " -> c" << cbit;
    return oss.str();
}

bool
operator==(const Gate &a, const Gate &b)
{
    return a.op == b.op && a.q0 == b.q0 && a.q1 == b.q1 && a.cbit == b.cbit;
}

} // namespace qc
