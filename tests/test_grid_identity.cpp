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
};

// Captured pre-refactor (seed 20190131, day 0, smtTimeoutMs 30000).
const Golden kGoldens[] = {
    {"Qiskit", "BV4", 183, 6, 0x8a583ee197c287b3ull},
    {"Qiskit", "BV6", 219, 6, 0x909f552f2d69ff58ull},
    {"Qiskit", "BV8", 225, 6, 0x612ea8e485ab9c2bull},
    {"Qiskit", "HS2", 35, 0, 0xeff3dcd1152523f3ull},
    {"Qiskit", "HS4", 35, 0, 0x4f0b414f5a1fd086ull},
    {"Qiskit", "HS6", 35, 0, 0x90bf0f0ef6bcfb93ull},
    {"Qiskit", "Toffoli", 161, 4, 0x90c3eaa88aafa434ull},
    {"Qiskit", "Fredkin", 178, 4, 0x5771015c7095d40cull},
    {"Qiskit", "Or", 161, 4, 0x5370ec70643c6043ull},
    {"Qiskit", "Peres", 153, 4, 0xfcbdf162e0b66e84ull},
    {"Qiskit", "QFT", 59, 0, 0x33abbc93d4cf7916ull},
    {"Qiskit", "Adder", 412, 10, 0x659afc7f4624e639ull},
    {"T-SMT", "BV4", 45, 0, 0xf67ed2bdc77cfa7cull},
    {"T-SMT", "BV6", 45, 0, 0xabec5df2094f97caull},
    {"T-SMT", "BV8", 44, 0, 0x60560c29ffe7d329ull},
    {"T-SMT", "HS2", 35, 0, 0x87f9d390da932473ull},
    {"T-SMT", "HS4", 41, 0, 0xb31a454b8c389734ull},
    {"T-SMT", "HS6", 41, 0, 0x38509c7f7bf29f8dull},
    {"T-SMT", "Toffoli", 197, 4, 0x6fa6953ff8271085ull},
    {"T-SMT", "Fredkin", 194, 4, 0x5cff489fff340875ull},
    {"T-SMT", "Or", 229, 4, 0x1b50dd827497a619ull},
    {"T-SMT", "Peres", 121, 2, 0x7eb19b9153bd85d4ull},
    {"T-SMT", "QFT", 79, 0, 0x7025b5c20321aeeeull},
    {"T-SMT", "Adder", 197, 0, 0xc7ab4cf6b88c99b2ull},
    {"T-SMT*", "BV4", 41, 0, 0x9b109c9a89802c2aull},
    {"T-SMT*", "BV6", 41, 0, 0xe83ef5b5d842d44ull},
    {"T-SMT*", "BV8", 41, 0, 0xc3fad7b06ae2146cull},
    {"T-SMT*", "HS2", 33, 0, 0x63271a1fd192bae5ull},
    {"T-SMT*", "HS4", 35, 0, 0xd0a6fdd5bdab2e96ull},
    {"T-SMT*", "HS6", 35, 0, 0x36fb276ffdde8633ull},
    {"T-SMT*", "Toffoli", 160, 4, 0x2ab5e39c20652f3eull},
    {"T-SMT*", "Fredkin", 164, 4, 0x24ffbd1382a4e40eull},
    {"T-SMT*", "Or", 147, 4, 0x406b977c8a00c4caull},
    {"T-SMT*", "Peres", 99, 2, 0x8fb120cdc599b6e9ull},
    {"T-SMT*", "QFT", 54, 0, 0x53d7a2766ed8cdccull},
    {"T-SMT*", "Adder", 168, 0, 0x5b4294483d9deaa7ull},
    {"R-SMT*", "BV4", 108, 2, 0x6196e4803eddb1b1ull},
    {"R-SMT*", "BV6", 108, 2, 0xc5a1024d2c96e2a8ull},
    {"R-SMT*", "BV8", 96, 2, 0x9cd64ab13318eeaull},
    {"R-SMT*", "HS2", 39, 0, 0xf9e46ebc2b98833bull},
    {"R-SMT*", "HS4", 39, 0, 0x7bd66607f719a52eull},
    {"R-SMT*", "HS6", 43, 0, 0xebbe78edd7d6a46full},
    {"R-SMT*", "Toffoli", 189, 4, 0xe4c8d4f96981663dull},
    {"R-SMT*", "Fredkin", 208, 4, 0xde39af811e3860b2ull},
    {"R-SMT*", "Or", 189, 4, 0x1f777df7b1a11669ull},
    {"R-SMT*", "Peres", 123, 2, 0x40accbb7775f802ull},
    {"R-SMT*", "QFT", 69, 0, 0xed31c56802909826ull},
    {"R-SMT*", "Adder", 470, 10, 0xbda8a3caff29bb99ull},
    {"GreedyV*", "BV4", 96, 2, 0xf7f04ca2fb2bba1ull},
    {"GreedyV*", "BV6", 96, 2, 0x80f210f5ddb7ed18ull},
    {"GreedyV*", "BV8", 96, 2, 0xe21c6fcf5f7bbe3aull},
    {"GreedyV*", "HS2", 39, 0, 0xf9e46ebc2b98833bull},
    {"GreedyV*", "HS4", 39, 0, 0xb8a726349e7462a2ull},
    {"GreedyV*", "HS6", 45, 0, 0xee3f4f0945bd199ull},
    {"GreedyV*", "Toffoli", 189, 4, 0xe4c8d4f96981663dull},
    {"GreedyV*", "Fredkin", 192, 4, 0xba69509d2c396ca5ull},
    {"GreedyV*", "Or", 189, 4, 0x1f777df7b1a11669ull},
    {"GreedyV*", "Peres", 161, 4, 0x4a9dddfcb65dc620ull},
    {"GreedyV*", "QFT", 69, 0, 0xed31c56802909826ull},
    {"GreedyV*", "Adder", 441, 10, 0xb5e8419e95104187ull},
    {"GreedyE*", "BV4", 109, 2, 0x1453786a0af77340ull},
    {"GreedyE*", "BV6", 109, 2, 0x8d5c0ae1a446d0a2ull},
    {"GreedyE*", "BV8", 109, 2, 0xa1acc76a6a6d50b8ull},
    {"GreedyE*", "HS2", 39, 0, 0x8cd9554df10de8bull},
    {"GreedyE*", "HS4", 39, 0, 0x7bd66607f719a52eull},
    {"GreedyE*", "HS6", 43, 0, 0xebbe78edd7d6a46full},
    {"GreedyE*", "Toffoli", 197, 4, 0x1730091502f7d2feull},
    {"GreedyE*", "Fredkin", 218, 4, 0x9bb13a223dca4b7full},
    {"GreedyE*", "Or", 198, 4, 0xeae045739c345c60ull},
    {"GreedyE*", "Peres", 187, 4, 0xa0f6a1107ff936aull},
    {"GreedyE*", "QFT", 69, 0, 0x5aeadc05e69f21d6ull},
    {"GreedyE*", "Adder", 437, 10, 0x41ab87b58a832f46ull},
    {"GreedyE*+track", "BV4", 79, 1, 0xc05e83039e288e04ull},
    {"GreedyE*+track", "BV6", 79, 1, 0xaf60767021f6d7caull},
    {"GreedyE*+track", "BV8", 79, 1, 0x221109bd234432c4ull},
    {"GreedyE*+track", "HS2", 39, 0, 0x8cd9554df10de8bull},
    {"GreedyE*+track", "HS4", 39, 0, 0xa159e83ce08022deull},
    {"GreedyE*+track", "HS6", 43, 0, 0x9af9766f98db076full},
    {"GreedyE*+track", "Toffoli", 198, 4, 0xfe3f0c8e755c207eull},
    {"GreedyE*+track", "Fredkin", 219, 4, 0x40935e34955d5daeull},
    {"GreedyE*+track", "Or", 199, 4, 0xc94c71c69c84258ull},
    {"GreedyE*+track", "Peres", 188, 4, 0xf756c0d8ae759791ull},
    {"GreedyE*+track", "QFT", 69, 0, 0xd3b906b0a79dd9d6ull},
    {"GreedyE*+track", "Adder", 245, 2, 0x2e031822ba5a71a4ull},
    // Sabre (the eighth bundle), captured the same way before its
    // SWAP search was reworked for speed.
    {"Sabre", "BV4", 79, 1, 0xc05e83039e288e04ull},
    {"Sabre", "BV6", 79, 1, 0xaf60767021f6d7caull},
    {"Sabre", "BV8", 79, 1, 0x221109bd234432c4ull},
    {"Sabre", "HS2", 39, 0, 0x8cd9554df10de8bull},
    {"Sabre", "HS4", 39, 0, 0xa159e83ce08022deull},
    {"Sabre", "HS6", 43, 0, 0x9af9766f98db076full},
    {"Sabre", "Toffoli", 109, 1, 0x6828ac155338600aull},
    {"Sabre", "Fredkin", 160, 2, 0x26dc32d1ca5aab43ull},
    {"Sabre", "Or", 109, 1, 0x96ba69ede3d6796cull},
    {"Sabre", "Peres", 99, 1, 0xec20cc8f0e6d89d8ull},
    {"Sabre", "QFT", 69, 0, 0xd3b906b0a79dd9d6ull},
    {"Sabre", "Adder", 245, 2, 0x2e031822ba5a71a4ull},
};

bool
isSmtMapper(const std::string &name)
{
    return name.find("SMT") != std::string::npos;
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
        ++strict;
    }
    // Every SMT golden was captured optimal; allow a handful of
    // timeout skips on slow runners but never a silent wash-out.
    EXPECT_GE(strict, static_cast<int>(std::size(kGoldens)) - 6)
        << "too many SMT solves timed out to anchor identity";
}

} // namespace
} // namespace qc
