/**
 * @file
 * Grid-vs-refactor equivalence anchor for the topology abstraction.
 *
 * The goldens below were captured from the last pre-refactor build
 * (hard-coded grid machinery: Rect-based regions, per-cell ledger
 * buckets, coordinate SMT encoding) on the canonical seed-20190131
 * IBMQ16 day-0 machine: makespan, swap count, and an FNV-1a hash of
 * the full timed op stream for the Table 2 set across all seven
 * bundles. The refactored stack must reproduce every entry exactly —
 * any divergence means the qubit-footprint generalization changed
 * behavior on grids, which is the one thing it must never do.
 *
 * SMT entries are only comparable when the solve proves optimality
 * (a wall-clock-interrupted Z3 search is not deterministic); all 36
 * SMT goldens were captured optimal, and the floor below keeps the
 * skip path from silently swallowing the test if that degrades.
 *
 * The 12 Sabre rows were added later, from the code just before
 * SABRE's SWAP search was reworked for speed; that rework must keep
 * them (and tests/test_sabre_mapper.cpp's stream goldens) exact.
 *
 * The second digest of each row (programFieldsHash) was added later
 * still, captured from the code that still carried a monolithic
 * mapper beside every pipeline bundle: it pins the remaining program
 * fields, so the bundles stay exact now that they are the only
 * implementation.
 */

#include <gtest/gtest.h>

#include <map>

#include "test_util.hpp"

namespace qc {
namespace {

using test::env;
using test::opStreamHash;

struct Golden
{
    const char *mapper;
    const char *bench;
    Timeslot makespan;
    int swaps;
    std::uint64_t opsHash;
    std::uint64_t fieldsHash;
};

// Captured pre-refactor (seed 20190131, day 0, smtTimeoutMs 30000);
// fieldsHash captured later, as described above.
const Golden kGoldens[] = {
    {"Qiskit", "BV4", 183, 6, 0x8a583ee197c287b3ull,
     0x324ec8d6df02d514ull},
    {"Qiskit", "BV6", 219, 6, 0x909f552f2d69ff58ull,
     0x6f09f416d17f4119ull},
    {"Qiskit", "BV8", 225, 6, 0x612ea8e485ab9c2bull,
     0xde4166e70067f48bull},
    {"Qiskit", "HS2", 35, 0, 0xeff3dcd1152523f3ull,
     0xdfe1e9153cd42b1aull},
    {"Qiskit", "HS4", 35, 0, 0x4f0b414f5a1fd086ull,
     0xf25ea251e614521ull},
    {"Qiskit", "HS6", 35, 0, 0x90bf0f0ef6bcfb93ull,
     0x541ac4e8ad7f4dd5ull},
    {"Qiskit", "Toffoli", 161, 4, 0x90c3eaa88aafa434ull,
     0x832fbe9d89fc4742ull},
    {"Qiskit", "Fredkin", 178, 4, 0x5771015c7095d40cull,
     0xab6a9017b680b624ull},
    {"Qiskit", "Or", 161, 4, 0x5370ec70643c6043ull,
     0xcbac92edd54e9a88ull},
    {"Qiskit", "Peres", 153, 4, 0xfcbdf162e0b66e84ull,
     0x84ec47b7f3548c5bull},
    {"Qiskit", "QFT", 59, 0, 0x33abbc93d4cf7916ull,
     0xb9615e98e24edaaull},
    {"Qiskit", "Adder", 412, 10, 0x659afc7f4624e639ull,
     0xe37171bbf8769730ull},
    {"T-SMT", "BV4", 45, 0, 0xf67ed2bdc77cfa7cull,
     0x6f4e6a0be8447eb0ull},
    {"T-SMT", "BV6", 45, 0, 0xabec5df2094f97caull,
     0x52fbbdd0892bf851ull},
    {"T-SMT", "BV8", 44, 0, 0x60560c29ffe7d329ull,
     0x63fa511cb57aefbbull},
    {"T-SMT", "HS2", 35, 0, 0x87f9d390da932473ull,
     0xb59edc16b486daeeull},
    {"T-SMT", "HS4", 41, 0, 0xb31a454b8c389734ull,
     0xa4852a7da44ed1a1ull},
    {"T-SMT", "HS6", 41, 0, 0x38509c7f7bf29f8dull,
     0xf0cd67c3e6c6e958ull},
    {"T-SMT", "Toffoli", 197, 4, 0x6fa6953ff8271085ull,
     0xa340a7da7aca4c1dull},
    {"T-SMT", "Fredkin", 194, 4, 0x5cff489fff340875ull,
     0xcd4a5a72708ed134ull},
    {"T-SMT", "Or", 229, 4, 0x1b50dd827497a619ull,
     0x81505cef9aecce98ull},
    {"T-SMT", "Peres", 121, 2, 0x7eb19b9153bd85d4ull,
     0xa9f9aa8f01d5084full},
    {"T-SMT", "QFT", 79, 0, 0x7025b5c20321aeeeull,
     0x25e394e34fae7797ull},
    {"T-SMT", "Adder", 197, 0, 0xc7ab4cf6b88c99b2ull,
     0xab8ae469045be13ull},
    {"T-SMT*", "BV4", 41, 0, 0x9b109c9a89802c2aull,
     0xafb2d0ad9dbc2780ull},
    {"T-SMT*", "BV6", 41, 0, 0xe83ef5b5d842d44ull,
     0x8f8fcb77f40d2971ull},
    {"T-SMT*", "BV8", 41, 0, 0xc3fad7b06ae2146cull,
     0x57c9ea7d043ff800ull},
    {"T-SMT*", "HS2", 33, 0, 0x63271a1fd192bae5ull,
     0x523dad742244dccbull},
    {"T-SMT*", "HS4", 35, 0, 0xd0a6fdd5bdab2e96ull,
     0x2e9c0e43920ac0afull},
    {"T-SMT*", "HS6", 35, 0, 0x36fb276ffdde8633ull,
     0xa558413cbcc9d59eull},
    {"T-SMT*", "Toffoli", 160, 4, 0x2ab5e39c20652f3eull,
     0xb4da96d61cf12ad2ull},
    {"T-SMT*", "Fredkin", 164, 4, 0x24ffbd1382a4e40eull,
     0x93b9b03665fb2fadull},
    {"T-SMT*", "Or", 147, 4, 0x406b977c8a00c4caull,
     0xbf8bc1c3c4ffc2efull},
    {"T-SMT*", "Peres", 99, 2, 0x8fb120cdc599b6e9ull,
     0xa17f9fe52e1ddbc4ull},
    {"T-SMT*", "QFT", 54, 0, 0x53d7a2766ed8cdccull,
     0xd9ebc7e0b2ecff0aull},
    {"T-SMT*", "Adder", 168, 0, 0x5b4294483d9deaa7ull,
     0x1274e345d99dd6f6ull},
    {"R-SMT*", "BV4", 108, 2, 0x6196e4803eddb1b1ull,
     0xb78e374a979db206ull},
    {"R-SMT*", "BV6", 108, 2, 0xc5a1024d2c96e2a8ull,
     0x1fadc7cd5eeb26aull},
    {"R-SMT*", "BV8", 96, 2, 0x9cd64ab13318eeaull,
     0xaf89949c5055931full},
    {"R-SMT*", "HS2", 39, 0, 0xf9e46ebc2b98833bull,
     0x184654e52b881718ull},
    {"R-SMT*", "HS4", 39, 0, 0x7bd66607f719a52eull,
     0x46b126d151728365ull},
    {"R-SMT*", "HS6", 43, 0, 0xebbe78edd7d6a46full,
     0xf3c4890bcf73ed93ull},
    {"R-SMT*", "Toffoli", 189, 4, 0xe4c8d4f96981663dull,
     0x76bb9eed71523e8dull},
    {"R-SMT*", "Fredkin", 208, 4, 0xde39af811e3860b2ull,
     0x3b4d7af7ea6b1fbull},
    {"R-SMT*", "Or", 189, 4, 0x1f777df7b1a11669ull,
     0x841cbbc756b0f34full},
    {"R-SMT*", "Peres", 123, 2, 0x40accbb7775f802ull,
     0xfb9ce0d9c3d9e01full},
    {"R-SMT*", "QFT", 69, 0, 0xed31c56802909826ull,
     0xe7e32fcf9c2e487aull},
    {"R-SMT*", "Adder", 470, 10, 0xbda8a3caff29bb99ull,
     0x4be79881530e362full},
    {"GreedyV*", "BV4", 96, 2, 0xf7f04ca2fb2bba1ull,
     0x655564dc565e8b80ull},
    {"GreedyV*", "BV6", 96, 2, 0x80f210f5ddb7ed18ull,
     0x7ffc38fff442ed9eull},
    {"GreedyV*", "BV8", 96, 2, 0xe21c6fcf5f7bbe3aull,
     0x666e3196dced6aecull},
    {"GreedyV*", "HS2", 39, 0, 0xf9e46ebc2b98833bull,
     0x9ef8c60e1d83b2b5ull},
    {"GreedyV*", "HS4", 39, 0, 0xb8a726349e7462a2ull,
     0x89f7497fa74f8bcfull},
    {"GreedyV*", "HS6", 45, 0, 0xee3f4f0945bd199ull,
     0x9da14b7ae416f463ull},
    {"GreedyV*", "Toffoli", 189, 4, 0xe4c8d4f96981663dull,
     0x6f40af8897918af4ull},
    {"GreedyV*", "Fredkin", 192, 4, 0xba69509d2c396ca5ull,
     0xa171e1a15441b12eull},
    {"GreedyV*", "Or", 189, 4, 0x1f777df7b1a11669ull,
     0x6134313fd4134e8ull},
    {"GreedyV*", "Peres", 161, 4, 0x4a9dddfcb65dc620ull,
     0xf57b6cbd4f253a83ull},
    {"GreedyV*", "QFT", 69, 0, 0xed31c56802909826ull,
     0xa1186885796cb8c7ull},
    {"GreedyV*", "Adder", 441, 10, 0xb5e8419e95104187ull,
     0xb20d3be59193369dull},
    {"GreedyE*", "BV4", 109, 2, 0x1453786a0af77340ull,
     0x350c77bc62aaa51cull},
    {"GreedyE*", "BV6", 109, 2, 0x8d5c0ae1a446d0a2ull,
     0x6c17dca9a684f8c8ull},
    {"GreedyE*", "BV8", 109, 2, 0xa1acc76a6a6d50b8ull,
     0x6a136c2f9f358640ull},
    {"GreedyE*", "HS2", 39, 0, 0x8cd9554df10de8bull,
     0xdce748bf6d9d4f02ull},
    {"GreedyE*", "HS4", 39, 0, 0x7bd66607f719a52eull,
     0x157d7f1d08da3d5aull},
    {"GreedyE*", "HS6", 43, 0, 0xebbe78edd7d6a46full,
     0x9b1e5d178a6fefbaull},
    {"GreedyE*", "Toffoli", 197, 4, 0x1730091502f7d2feull,
     0x48be9a5d1538d92eull},
    {"GreedyE*", "Fredkin", 218, 4, 0x9bb13a223dca4b7full,
     0xa195efa4338a62dbull},
    {"GreedyE*", "Or", 198, 4, 0xeae045739c345c60ull,
     0x11bc4fae15e5f415ull},
    {"GreedyE*", "Peres", 187, 4, 0xa0f6a1107ff936aull,
     0x365a04c33491e9edull},
    {"GreedyE*", "QFT", 69, 0, 0x5aeadc05e69f21d6ull,
     0xc8671e577f465498ull},
    {"GreedyE*", "Adder", 437, 10, 0x41ab87b58a832f46ull,
     0xab9693f1496bdad4ull},
    {"GreedyE*+track", "BV4", 79, 1, 0xc05e83039e288e04ull,
     0xd9b50be2002b846dull},
    {"GreedyE*+track", "BV6", 79, 1, 0xaf60767021f6d7caull,
     0x5c37500ccabcc009ull},
    {"GreedyE*+track", "BV8", 79, 1, 0x221109bd234432c4ull,
     0xd0bd1746900c538cull},
    {"GreedyE*+track", "HS2", 39, 0, 0x8cd9554df10de8bull,
     0x288cb4eeb4c3fc34ull},
    {"GreedyE*+track", "HS4", 39, 0, 0xa159e83ce08022deull,
     0x92f3fa52f414ada7ull},
    {"GreedyE*+track", "HS6", 43, 0, 0x9af9766f98db076full,
     0x77f1d971d3dc959full},
    {"GreedyE*+track", "Toffoli", 198, 4, 0xfe3f0c8e755c207eull,
     0x59e9da8d9f796a3dull},
    {"GreedyE*+track", "Fredkin", 219, 4, 0x40935e34955d5daeull,
     0xc241d36bc68f76f8ull},
    {"GreedyE*+track", "Or", 199, 4, 0xc94c71c69c84258ull,
     0x4c45103fbf1f00b0ull},
    {"GreedyE*+track", "Peres", 188, 4, 0xf756c0d8ae759791ull,
     0xa50e7970d135f861ull},
    {"GreedyE*+track", "QFT", 69, 0, 0xd3b906b0a79dd9d6ull,
     0x3cf4cfb037152a6cull},
    {"GreedyE*+track", "Adder", 245, 2, 0x2e031822ba5a71a4ull,
     0xba0493e6dedd8e10ull},
    // Sabre (the eighth bundle), captured the same way before its
    // SWAP search was reworked for speed.
    {"Sabre", "BV4", 79, 1, 0xc05e83039e288e04ull,
     0x4e2f0e4e7799a5aaull},
    {"Sabre", "BV6", 79, 1, 0xaf60767021f6d7caull,
     0x2cc84e089ea8247eull},
    {"Sabre", "BV8", 79, 1, 0x221109bd234432c4ull,
     0x587190b2ca801f13ull},
    {"Sabre", "HS2", 39, 0, 0x8cd9554df10de8bull,
     0xe16520287efde58full},
    {"Sabre", "HS4", 39, 0, 0xa159e83ce08022deull,
     0x2df4b39a850062d4ull},
    {"Sabre", "HS6", 43, 0, 0x9af9766f98db076full,
     0xc9d5712980ebf118ull},
    {"Sabre", "Toffoli", 109, 1, 0x6828ac155338600aull,
     0x9654cfa3002784cull},
    {"Sabre", "Fredkin", 160, 2, 0x26dc32d1ca5aab43ull,
     0x2f261c3aa959c31bull},
    {"Sabre", "Or", 109, 1, 0x96ba69ede3d6796cull,
     0x1945f67edc839eb8ull},
    {"Sabre", "Peres", 99, 1, 0xec20cc8f0e6d89d8ull,
     0x996960358a87af8aull},
    {"Sabre", "QFT", 69, 0, 0xd3b906b0a79dd9d6ull,
     0x65e2183ce4226c3ull},
    {"Sabre", "Adder", 245, 2, 0x2e031822ba5a71a4ull,
     0x93e32e5b54ce04abull},
};

bool
isSmtMapper(const std::string &name)
{
    return name.find("SMT") != std::string::npos;
}

/**
 * FNV-1a digest of the program fields the op-stream hash leaves out:
 * mapper name, layout, junctions, both predictions (doubles by bit
 * pattern), the solver verdict, and the schedule's macro timings and
 * per-qubit finish times.
 */
std::uint64_t
programFieldsHash(const CompiledProgram &p)
{
    Fingerprint fp;
    fp.mix(p.mapperName).mixVector(p.layout).mixVector(p.junctions);
    fp.mix(p.logReliability).mix(p.predictedSuccess);
    fp.mix(p.solverOptimal).mix(p.solverStatus);
    fp.mix(static_cast<std::uint64_t>(p.schedule.macros.size()));
    for (const MacroTiming &m : p.schedule.macros)
        fp.mix(m.progGate).mix(m.start).mix(m.duration);
    fp.mixVector(p.schedule.qubitFinish);
    return fp.value();
}

TEST(GridIdentity, Table2AllBundlesMatchPreRefactorGoldens)
{
    auto machine =
        std::make_shared<const Machine>(env().machineForDay(0));

    std::map<std::string, Pipeline> pipelines;
    for (MapperKind kind : kAllMapperKinds) {
        CompilerOptions opts;
        opts.mapper = kind;
        opts.smtTimeoutMs = 30'000;
        pipelines.emplace(mapperKindName(kind),
                          standardPipeline(machine, opts));
    }

    int strict = 0, skipped = 0;
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.mapper) + "/" + g.bench);
        PipelineResult r = pipelines.at(g.mapper).run(
            benchmarkByName(g.bench).circuit);
        ASSERT_TRUE(r.ok()) << r.status.message;
        if (isSmtMapper(g.mapper) && !r.program.solverOptimal) {
            ++skipped; // interrupted solve: not comparable
            continue;
        }
        EXPECT_EQ(r.program.duration, g.makespan);
        EXPECT_EQ(r.program.swapCount, g.swaps);
        EXPECT_EQ(opStreamHash(r.program.schedule), g.opsHash);
        EXPECT_EQ(programFieldsHash(r.program), g.fieldsHash);
        ++strict;
    }
    // Every SMT golden was captured optimal; allow a handful of
    // timeout skips on slow runners but never a silent wash-out.
    EXPECT_GE(strict, static_cast<int>(std::size(kGoldens)) - 6)
        << "too many SMT solves timed out to anchor identity";
}

} // namespace
} // namespace qc
