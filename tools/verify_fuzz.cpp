/**
 * @file
 * Mutation-fuzz harness for the translation validator — the
 * verifier's own test oracle.
 *
 * For every Table 2 benchmark × heuristic bundle × topology in the
 * sweep, compile once, assert the clean program verifies, then inject
 * every MutationKind (several seeded rounds each) and assert the
 * verifier flags every single corrupted program. A mutation that
 * escapes is a verifier blind spot and fails the run loudly.
 *
 *   verify_fuzz [--seed S] [--rounds N] [--verbose]
 *
 * Exit 0: every injected violation was caught. Exit 1: a mutation
 * escaped (the offending benchmark/bundle/kind/round is printed, and
 * the run is reproducible from the seed).
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "machine/calibration_model.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "verify/mutate.hpp"
#include "verify/verifier.hpp"
#include "workloads/benchmarks.hpp"

using namespace qc;

namespace {

struct FuzzCli
{
    std::uint64_t seed = 20190131;
    int rounds = 3;
    bool verbose = false;
};

FuzzCli
parseArgs(int argc, char **argv)
{
    FuzzCli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&] { return cli::flagValue(argc, argv, i); };
        if (arg == "--seed") {
            cli.seed = cli::parseUint64Flag("--seed", next());
        } else if (arg == "--rounds") {
            cli.rounds = cli::parseIntFlag("--rounds", next());
        } else if (arg == "--verbose") {
            cli.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: verify_fuzz [--seed S] [--rounds N] "
                         "[--verbose]\n";
            std::exit(0);
        } else {
            throw cli::UsageError("unknown argument '" + arg + "'");
        }
    }
    return cli;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzCli cli;
    try {
        cli = parseArgs(argc, argv);
    } catch (const cli::UsageError &e) {
        std::cerr << "verify_fuzz: " << e.what() << "\n";
        return e.exitCode();
    }

    // Heuristic bundles only: they cover both scheduler families
    // (expandRoute list scheduling and live-tracking routing) in
    // milliseconds; the SMT bundles produce the same Schedule shapes
    // through the same list scheduler.
    const MapperKind bundles[] = {
        MapperKind::Qiskit,       MapperKind::GreedyV,
        MapperKind::GreedyE,      MapperKind::GreedyETrack,
        MapperKind::Sabre,
    };
    const char *topologies[] = {"grid:2x8", "heavyhex:3", "ring:16"};

    int injected = 0;
    int caught = 0;
    int skipped = 0;
    int escaped = 0;

    for (const char *spec : topologies) {
        const Topology topo = topologyFromSpec(spec);
        const CalibrationModel model(topo, cli.seed);
        auto machine =
            std::make_shared<const Machine>(topo, model.forDay(0));

        for (MapperKind kind : bundles) {
            CompilerOptions opts;
            opts.mapper = kind;
            const Pipeline pipeline = standardPipeline(machine, opts);

            for (const Benchmark &b : paperBenchmarks()) {
                const PipelineResult r = pipeline.run(b.circuit);
                if (!r.ok()) {
                    // e.g. the benchmark needs more qubits than the
                    // topology offers — nothing to fuzz here.
                    ++skipped;
                    continue;
                }

                VerifyOptions vopts;
                vopts.expectRestoredLayout = !pipeline.routesLive();
                const ProgramVerifier verifier(*machine, vopts);
                const VerifyReport clean =
                    verifier.verify(b.circuit, r.program);
                if (!clean.ok()) {
                    std::cerr << "verify_fuzz: CLEAN PROGRAM "
                                 "REJECTED: "
                              << spec << " " << mapperKindName(kind)
                              << " " << b.name << "\n"
                              << clean.toString() << "\n";
                    return 1;
                }

                for (MutationKind mk : kAllMutationKinds) {
                    for (int round = 0; round < cli.rounds; ++round) {
                        CompiledProgram corrupted = r.program;
                        Rng rng(cli.seed +
                                    static_cast<std::uint64_t>(round),
                                mutationKindName(mk));
                        if (!applyMutation(corrupted, *machine, mk,
                                           rng)) {
                            ++skipped;
                            continue;
                        }
                        ++injected;
                        const VerifyReport report =
                            verifier.verify(b.circuit, corrupted);
                        if (report.ok()) {
                            ++escaped;
                            std::cerr
                                << "verify_fuzz: MUTATION ESCAPED: "
                                << spec << " " << mapperKindName(kind)
                                << " " << b.name << " "
                                << mutationKindName(mk) << " round "
                                << round << "\n";
                        } else {
                            ++caught;
                            if (cli.verbose)
                                std::cout
                                    << spec << " "
                                    << mapperKindName(kind) << " "
                                    << b.name << " "
                                    << mutationKindName(mk)
                                    << " round " << round
                                    << ": caught ("
                                    << verifyCodeName(
                                           report.issues[0].code)
                                    << ")\n";
                        }
                    }
                }
            }
        }
    }

    std::cout << "verify_fuzz: " << injected << " injected, "
              << caught << " caught, " << escaped << " escaped, "
              << skipped << " skipped (seed " << cli.seed << ", "
              << cli.rounds << " rounds)\n";
    return escaped == 0 ? 0 : 1;
}
