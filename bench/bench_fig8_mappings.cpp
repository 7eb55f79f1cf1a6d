/**
 * @file
 * Figure 8 reproduction: the BV4 qubit mappings chosen by Qiskit,
 * T-SMT*, R-SMT*(w=1) and R-SMT*(w=0.5) on one calibration day,
 * rendered as annotated 2x8 grids with per-mapping SWAP counts and
 * predicted reliability.
 */

#include <iomanip>
#include <sstream>

#include "bench_util.hpp"

using namespace qc;

namespace {

/** Render a layout over the 2x8 grid with readout errors. */
void
renderMapping(const Machine &m, const CompiledProgram &cp)
{
    const auto &topo = m.topo();
    std::vector<std::string> cell(topo.numQubits());
    for (int h = 0; h < topo.numQubits(); ++h) {
        std::ostringstream oss;
        oss << std::setprecision(0) << std::fixed
            << m.cal().readoutError[h] * 100.0;
        cell[h] = "." + oss.str();
    }
    for (size_t p = 0; p < cp.layout.size(); ++p)
        cell[cp.layout[p]] = "p" + std::to_string(p);

    std::cout << cp.mapperName << ": swaps=" << cp.swapCount
              << " predicted success=" << Table::fmt(
                     cp.predictedSuccess)
              << " duration=" << cp.duration << " slots\n";
    for (int x = 0; x < topo.rows(); ++x) {
        std::cout << "  ";
        for (int y = 0; y < topo.cols(); ++y) {
            std::cout << std::setw(5)
                      << cell[topo.qubitAt(x, y)];
        }
        std::cout << "\n";
    }
    std::cout << "  (pN = program qubit N; .E = unused qubit's "
                 "readout error x100)\n";
    // CNOT edge errors along the bottom for context.
    std::cout << "  layout: ";
    for (size_t p = 0; p < cp.layout.size(); ++p)
        std::cout << "p" << p << "->Q" << cp.layout[p] << " ";
    std::cout << "\n\n";
}

} // namespace

int
main()
{
    const std::uint64_t seed = bench::benchSeed();
    bench::banner("Figure 8: BV4 mappings by objective", seed);
    ExperimentEnv env(seed);
    auto m = std::make_shared<const Machine>(env.machineForDay(0));
    Benchmark b = benchmarkByName("BV4");

    std::vector<CompilerOptions> configs(4);
    configs[0].mapper = MapperKind::Qiskit;
    configs[1].mapper = MapperKind::TSmtStar;
    configs[2].mapper = MapperKind::RSmtStar;
    configs[2].readoutWeight = 1.0;
    configs[3].mapper = MapperKind::RSmtStar;
    configs[3].readoutWeight = 0.5;
    for (auto &c : configs)
        c.smtTimeoutMs = kBenchSmtTimeoutMs;

    for (const auto &c : configs)
        renderMapping(*m, standardPipeline(m, c).compile(b.circuit));

    std::cout << "Paper shape: Qiskit needs SWAPs and lands on poor "
                 "readout qubits;\nT-SMT* avoids SWAPs but may use an "
                 "unreliable CNOT; R-SMT*(w=1) chases\nreadout only; "
                 "R-SMT*(w=0.5) balances CNOT+readout reliability.\n";
    return 0;
}
