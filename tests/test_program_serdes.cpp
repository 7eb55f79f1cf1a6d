/**
 * @file
 * Persistent-cache serialization tests: a CompiledProgram must
 * round-trip through the framed binary format field-for-field, and
 * every damaged blob — truncation, bit flips, wrong magic, future
 * version — must be rejected, never misparsed.
 */

#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "daemon/program_serdes.hpp"
#include "ir/qasm.hpp"
#include "machine/calibration_model.hpp"
#include "tests/test_util.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_circuits.hpp"

namespace {

using namespace qc;

/** A hand-built program exercising every serialized field. */
CompiledProgram
sampleProgram()
{
    CompiledProgram p;
    p.mapperName = "GreedyE*";
    p.programName = "sample";
    p.layout = {3, 1, 4, 1, 5};
    p.junctions = {-1, 9, 2, -1};
    p.schedule.numHwQubits = 6;
    p.schedule.ops.push_back(
        {Gate{Op::H, 3, kInvalidQubit, -1}, 0, 1, 0, false});
    p.schedule.ops.push_back({Gate{Op::CNOT, 3, 1, -1}, 1, 10, 1, false});
    p.schedule.ops.push_back({Gate{Op::Swap, 1, 4, -1}, 11, 30, 1, true});
    p.schedule.ops.push_back({Gate{Op::Measure, 4, kInvalidQubit, 2},
                              41, 12, 2, false});
    p.schedule.macros.push_back({0, 0, 1});
    p.schedule.macros.push_back({1, 1, 40});
    p.schedule.macros.push_back({2, 41, 12});
    p.schedule.makespan = 53;
    p.schedule.qubitFinish = {0, 41, 0, 11, 53, 0};
    p.duration = 53;
    p.logReliability = -0.73;
    p.predictedSuccess = 0.4819;
    p.swapCount = 1;
    p.compileSeconds = 0.0042;
    p.solverOptimal = false;
    p.solverStatus = "timeout after 60000 ms";
    p.stageTraces.push_back({"placement", "GreedyE*", 0.003, "ok"});
    p.stageTraces.push_back({"scheduling", "list", 0.001, ""});
    return p;
}

void
expectIdentical(const CompiledProgram &a, const CompiledProgram &b)
{
    EXPECT_EQ(a.mapperName, b.mapperName);
    EXPECT_EQ(a.programName, b.programName);
    EXPECT_EQ(a.layout, b.layout);
    EXPECT_EQ(a.junctions, b.junctions);
    EXPECT_TRUE(a.schedule.identicalTo(b.schedule));
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.logReliability, b.logReliability);
    EXPECT_EQ(a.predictedSuccess, b.predictedSuccess);
    EXPECT_EQ(a.swapCount, b.swapCount);
    EXPECT_EQ(a.compileSeconds, b.compileSeconds);
    EXPECT_EQ(a.solverOptimal, b.solverOptimal);
    EXPECT_EQ(a.solverStatus, b.solverStatus);
    ASSERT_EQ(a.stageTraces.size(), b.stageTraces.size());
    for (std::size_t i = 0; i < a.stageTraces.size(); ++i) {
        EXPECT_EQ(a.stageTraces[i].stage, b.stageTraces[i].stage);
        EXPECT_EQ(a.stageTraces[i].pass, b.stageTraces[i].pass);
        EXPECT_EQ(a.stageTraces[i].seconds, b.stageTraces[i].seconds);
        EXPECT_EQ(a.stageTraces[i].note, b.stageTraces[i].note);
    }
}

TEST(ProgramSerdes, RoundTripsEveryField)
{
    CompiledProgram original = sampleProgram();
    std::string blob = daemon::serializeCompiledProgram(original);

    CompiledProgram restored;
    ASSERT_TRUE(daemon::deserializeCompiledProgram(blob, restored));
    expectIdentical(original, restored);
}

TEST(ProgramSerdes, RoundTripsRealPipelineOutput)
{
    GridTopology topo(2, 4);
    auto machine = std::make_shared<const Machine>(
        topo, test::uniformCalibration(topo));
    CompilerOptions opts;
    opts.mapper = MapperKind::GreedyE;
    PipelineResult result =
        standardPipeline(machine, opts)
            .run(benchmarkByName("Toffoli").circuit);
    ASSERT_TRUE(result.hasProgram);

    std::string blob =
        daemon::serializeCompiledProgram(result.program);
    CompiledProgram restored;
    ASSERT_TRUE(daemon::deserializeCompiledProgram(blob, restored));
    expectIdentical(result.program, restored);
}

TEST(ProgramSerdes, DeterministicBytes)
{
    CompiledProgram p = sampleProgram();
    EXPECT_EQ(daemon::serializeCompiledProgram(p),
              daemon::serializeCompiledProgram(p));
}

TEST(ProgramSerdes, RejectsTruncationAtEveryLength)
{
    std::string blob =
        daemon::serializeCompiledProgram(sampleProgram());
    CompiledProgram out;
    for (std::size_t len = 0; len < blob.size(); ++len)
        EXPECT_FALSE(daemon::deserializeCompiledProgram(
            blob.substr(0, len), out))
            << "accepted a blob truncated to " << len << " bytes";
}

TEST(ProgramSerdes, RejectsSingleByteCorruption)
{
    std::string blob =
        daemon::serializeCompiledProgram(sampleProgram());
    CompiledProgram out;
    // Flip one bit in every byte: header corruption must fail the
    // magic/version/size checks, payload corruption the checksum.
    for (std::size_t i = 0; i < blob.size(); ++i) {
        std::string bad = blob;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        EXPECT_FALSE(daemon::deserializeCompiledProgram(bad, out))
            << "accepted a blob with byte " << i << " corrupted";
    }
}

TEST(ProgramSerdes, RejectsTrailingGarbage)
{
    std::string blob =
        daemon::serializeCompiledProgram(sampleProgram());
    blob += "extra";
    CompiledProgram out;
    EXPECT_FALSE(daemon::deserializeCompiledProgram(blob, out));
}

TEST(ProgramSerdes, RejectsFutureVersion)
{
    std::string blob =
        daemon::serializeCompiledProgram(sampleProgram());
    // The u32 version sits right after the 4-byte magic
    // (little-endian); bump it as a simulated newer writer.
    blob[4] = static_cast<char>(daemon::kProgramSerdesVersion + 1);
    CompiledProgram out;
    EXPECT_FALSE(daemon::deserializeCompiledProgram(blob, out));
}

TEST(ProgramSerdes, RejectsEmptyAndForeignBlobs)
{
    CompiledProgram out;
    EXPECT_FALSE(daemon::deserializeCompiledProgram("", out));
    EXPECT_FALSE(daemon::deserializeCompiledProgram("not a blob", out));
    EXPECT_FALSE(daemon::deserializeCompiledProgram(
        std::string(1024, '\0'), out));
}

/**
 * Byte goldens for what a naqcd answer is made of: the emitted QASM
 * text and the NQCP cache frame of heuristic_stream-shaped programs
 * (16-48 qubits, universal-set and 60%-CNOT) under the five
 * heuristic bundles. Timing fields are zeroed before the frame is
 * hashed. Captured before the emitter and the frame writer were
 * rewritten for speed; a change to either that moves one byte shows
 * up here.
 */
struct ByteGolden
{
    const char *topology;
    int day;
    bool denseCnot;
    int qubits;
    int gates;
    std::uint64_t seed;
    std::uint64_t qasmHash[5];  ///< per bundle, kHeuristicBundles order
    std::uint64_t frameHash[5];
};

const MapperKind kHeuristicBundles[] = {
    MapperKind::Qiskit, MapperKind::GreedyV, MapperKind::GreedyE,
    MapperKind::GreedyETrack, MapperKind::Sabre};

const ByteGolden kByteGoldens[] = {
    {"grid:8x8", 0, false, 16, 256, 41,
     {0xac23e82d2335d131ull, 0xff30f8a12ecd6a08ull,
      0x5e4599cb14958d83ull, 0x0d9a02a2d8eb7c56ull,
      0x8808d7f95e959e42ull},
     {0xb0cc1d33aaf19d1eull, 0xba7951b7b0f7ebcbull,
      0x77252b20276c0d6dull, 0xb49c700a9abc709dull,
      0x055a46231474d9daull}},
    {"grid:8x8", 0, true, 48, 1024, 42,
     {0x1d1b9cd6e94b8455ull, 0x4e672c430ff8fbf6ull,
      0x3e305b6fdae939cdull, 0x8121e99c4207d7e5ull,
      0x582ae384886ba202ull},
     {0xcdd888a91f3e3c5full, 0x1bf5bb58fe23d949ull,
      0x0de43e6f10b7bcd7ull, 0xa6ccb2cadbab3b7bull,
      0xd5c9881afbdd2628ull}},
    {"grid:8x8", 1, false, 48, 1024, 43,
     {0x96af7778f45dc3b8ull, 0x041b40cc61cf34faull,
      0x161323121bbb1cd4ull, 0x13e66e015c378100ull,
      0x7a145748f3fad94aull},
     {0xef5a4217731383c5ull, 0x4b1cb643da01c88dull,
      0xf156649a8390cfecull, 0x1ef805f2a29080ccull,
      0xbf4d50666e9f9b63ull}},
    {"grid:8x8", 1, true, 32, 512, 44,
     {0xc5d373a6b5ebcc3cull, 0x7420a9475a39f0d2ull,
      0x9f25b21c45a5f62aull, 0xd23466bcca9965eaull,
      0x268bbe16cbc1576dull},
     {0x7cbc3ab19580665eull, 0x30051aa6738420c7ull,
      0x6aee7ecc2cec0bf6ull, 0x7a7c94135f752ec3ull,
      0xa0e31e2b893617e1ull}},
    {"heavyhex:5", 0, false, 40, 768, 45,
     {0x2242dc6e771aa37aull, 0x6adf12de735fb5d7ull,
      0x60468c697f91153dull, 0x61840610366bcc79ull,
      0x7739c8433c206bfaull},
     {0x4c24247a9a11e7e4ull, 0xdf65298597e5ff8cull,
      0xb8bc5af46ff6b615ull, 0x6c88d04536f5eb4eull,
      0x72def27903674195ull}},
    {"heavyhex:5", 0, true, 24, 512, 46,
     {0x27d4568c2eb6f76dull, 0xbdf306830db04e28ull,
      0x09c16c19cd54416bull, 0x6a372fe41c0177feull,
      0x74704194ff5d5313ull},
     {0xfd9048c3e1512503ull, 0x023f54d78b63b9b3ull,
      0xee307d68d17c014cull, 0xac9b44971672860dull,
      0x39384d9c33066bb2ull}},
    {"ring:16", 0, false, 16, 512, 47,
     {0xc5e94aa98ceb0172ull, 0x7090c1a7c41594a2ull,
      0x906b17ff150ae765ull, 0xefb177a1d41a9cb4ull,
      0x1334744612260cbcull},
     {0x8c806c5a4f4a297bull, 0x6da72618b7017efeull,
      0xdbcfa72b438abbb3ull, 0xa4c89bb7d49b7105ull,
      0x9dee38b5650919d4ull}},
    {"ring:16", 0, true, 16, 256, 48,
     {0xda95087e415dc7bcull, 0xc3d63e9538dd644aull,
      0xefeaa068e044315cull, 0xb511919788716f4aull,
      0x71301c77d39bf3b4ull},
     {0xef32529c68bfbd93ull, 0x992b8ac678a2c797ull,
      0xb8458fdefa997bf6ull, 0x28124a38830e0d1aull,
      0x1499c89612651a37ull}},
};

std::uint64_t
bytesHash(const std::string &bytes)
{
    return Fingerprint().mixBytes(bytes.data(), bytes.size()).value();
}

/** The program with every wall-clock field zeroed. */
CompiledProgram
withoutTimings(CompiledProgram p)
{
    p.compileSeconds = 0.0;
    for (StageTrace &t : p.stageTraces)
        t.seconds = 0.0;
    return p;
}

TEST(ByteGoldens, QasmAndFramesOfHeuristicBundles)
{
    for (const ByteGolden &g : kByteGoldens) {
        Topology topo = topologyFromSpec(g.topology);
        CalibrationModel model(topo, test::kSeed);
        auto machine =
            std::make_shared<const Machine>(topo, model.forDay(g.day));
        Circuit prog =
            g.denseCnot
                ? makeDenseCnotCircuit(g.qubits, g.gates, g.seed, 600)
                : makeRandomCircuit({g.qubits, g.gates, g.seed, true});
        for (std::size_t b = 0; b < 5; ++b) {
            CompilerOptions opts;
            opts.mapper = kHeuristicBundles[b];
            SCOPED_TRACE(std::string(g.topology) + " day " +
                         std::to_string(g.day) + " seed " +
                         std::to_string(g.seed) + " " +
                         mapperKindName(opts.mapper));
            PipelineResult r = standardPipeline(machine, opts).run(prog);
            ASSERT_TRUE(r.ok()) << r.status.message;
            const std::string qasm =
                emitQasm(r.program.hwCircuit(prog.numClbits()));
            const std::string frame = daemon::serializeCompiledProgram(
                withoutTimings(r.program));
            EXPECT_EQ(bytesHash(qasm), g.qasmHash[b]);
            EXPECT_EQ(bytesHash(frame), g.frameHash[b]);
        }
    }
}

TEST(ProgramSerdes, SerializeDeserializeSerializeIsAFixpoint)
{
    // Real outputs of the five heuristic bundles, timings included:
    // a frame read back and written again is the same frame.
    for (const ByteGolden &g : kByteGoldens) {
        Topology topo = topologyFromSpec(g.topology);
        CalibrationModel model(topo, test::kSeed);
        auto machine =
            std::make_shared<const Machine>(topo, model.forDay(g.day));
        Circuit prog =
            g.denseCnot
                ? makeDenseCnotCircuit(g.qubits, g.gates, g.seed, 600)
                : makeRandomCircuit({g.qubits, g.gates, g.seed, true});
        for (MapperKind bundle : kHeuristicBundles) {
            CompilerOptions opts;
            opts.mapper = bundle;
            PipelineResult r = standardPipeline(machine, opts).run(prog);
            ASSERT_TRUE(r.ok()) << r.status.message;
            const std::string frame =
                daemon::serializeCompiledProgram(r.program);
            CompiledProgram back;
            ASSERT_TRUE(daemon::deserializeCompiledProgram(frame, back));
            expectIdentical(r.program, back);
            EXPECT_EQ(daemon::serializeCompiledProgram(back), frame)
                << g.topology << " " << mapperKindName(bundle);
        }
    }
}

} // namespace
