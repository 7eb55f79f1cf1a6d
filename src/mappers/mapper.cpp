#include "mapper.hpp"

#include <cmath>

namespace qc {

Circuit
CompiledProgram::hwCircuit(int n_clbits) const
{
    return schedule.toHwCircuit(programName + "." + mapperName, n_clbits);
}

double
predictLogReliability(const Machine &machine, const Circuit &prog,
                      const std::vector<HwQubit> &layout,
                      const ListScheduler &scheduler)
{
    double log_rel = 0.0;
    for (size_t i = 0; i < prog.size(); ++i) {
        const Gate &g = prog.gate(i);
        if (g.op == Op::CNOT) {
            RoutePath r = scheduler.chooseRoute(
                layout[g.q0], layout[g.q1], static_cast<int>(i));
            log_rel += std::log(r.reliability);
        } else if (g.isMeasure()) {
            log_rel += std::log(
                machine.cal().readoutReliability(layout[g.q0]));
        }
    }
    return log_rel;
}

} // namespace qc
