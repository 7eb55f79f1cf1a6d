/**
 * @file
 * Persistent-cache serialization tests: a CompiledProgram must
 * round-trip through the framed binary format field-for-field, and
 * every damaged blob — truncation, bit flips, wrong magic, future
 * version — must be rejected, never misparsed.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "daemon/program_serdes.hpp"
#include "ir/qasm.hpp"
#include "machine/calibration_model.hpp"
#include "support/rng.hpp"
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
 * hashed. The QASM hashes were captured before the emitter was
 * rewritten for speed, the frame hashes when NQCP moved to its
 * version 2 encoding; a change to either that moves one byte shows
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
     {0x837deb6fbce16902ull, 0x57f08bbfe2db1768ull,
      0x50996fee717415b1ull, 0xac5f5a70a36951cdull,
      0xfa5edd29a4f3fbd4ull}},
    {"grid:8x8", 0, true, 48, 1024, 42,
     {0x1d1b9cd6e94b8455ull, 0x4e672c430ff8fbf6ull,
      0x3e305b6fdae939cdull, 0x8121e99c4207d7e5ull,
      0x582ae384886ba202ull},
     {0x2caee253a8bd2922ull, 0xe001a7572bd52668ull,
      0xb327307e4281ab46ull, 0x09f9570d0a4ff13aull,
      0x5f6796c444c53e19ull}},
    {"grid:8x8", 1, false, 48, 1024, 43,
     {0x96af7778f45dc3b8ull, 0x041b40cc61cf34faull,
      0x161323121bbb1cd4ull, 0x13e66e015c378100ull,
      0x7a145748f3fad94aull},
     {0x536f3aa1d2e3b937ull, 0x984bce106dc7a588ull,
      0x409e9013289fae6full, 0x7855692b4e8b43b2ull,
      0x9f009d9ed2dd77f3ull}},
    {"grid:8x8", 1, true, 32, 512, 44,
     {0xc5d373a6b5ebcc3cull, 0x7420a9475a39f0d2ull,
      0x9f25b21c45a5f62aull, 0xd23466bcca9965eaull,
      0x268bbe16cbc1576dull},
     {0x6b7c973aae8dd685ull, 0x384604c82b05df6cull,
      0xedcaa1b00439e1f8ull, 0xd73f214c9a62d1f1ull,
      0x8129eca7b839793dull}},
    {"heavyhex:5", 0, false, 40, 768, 45,
     {0x2242dc6e771aa37aull, 0x6adf12de735fb5d7ull,
      0x60468c697f91153dull, 0x61840610366bcc79ull,
      0x7739c8433c206bfaull},
     {0x5b8d541cc3d07e8full, 0x9b9aa84c41b3089aull,
      0xfa100fc4215e1730ull, 0x0b776b0cfebf0de3ull,
      0xd6102b4437a8dacbull}},
    {"heavyhex:5", 0, true, 24, 512, 46,
     {0x27d4568c2eb6f76dull, 0xbdf306830db04e28ull,
      0x09c16c19cd54416bull, 0x6a372fe41c0177feull,
      0x74704194ff5d5313ull},
     {0x47664a547968a5aeull, 0x710caf258b623026ull,
      0x29601a7abc18921dull, 0xec3fe45bc47305c3ull,
      0x0ac08ab34d7bac14ull}},
    {"ring:16", 0, false, 16, 512, 47,
     {0xc5e94aa98ceb0172ull, 0x7090c1a7c41594a2ull,
      0x906b17ff150ae765ull, 0xefb177a1d41a9cb4ull,
      0x1334744612260cbcull},
     {0x3dee38b3d66090c5ull, 0xa072bdfa393319cbull,
      0x789044f922c7fe9aull, 0x7d1b91260772ae74ull,
      0x02c69c74f21a7697ull}},
    {"ring:16", 0, true, 16, 256, 48,
     {0xda95087e415dc7bcull, 0xc3d63e9538dd644aull,
      0xefeaa068e044315cull, 0xb511919788716f4aull,
      0x71301c77d39bf3b4ull},
     {0x1251154aa1ffed36ull, 0xaa00387e12f2dc30ull,
      0xa28c2760172edd53ull, 0xbc1fe784e44788eeull,
      0xcdf2844b1294b8b4ull}},
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

/** The payload behind a frame's header: magic, version, size, checksum. */
std::string
payloadOf(const std::string &frame)
{
    return frame.substr(24);
}

/** The frame of `payload` under `frame`'s magic and version, with its
 *  size and checksum re-patched so the payload decoder sees it. */
std::string
reframed(const std::string &frame, const std::string &payload)
{
    std::string out = frame.substr(0, 8);
    for (std::uint64_t v : {std::uint64_t(payload.size()),
                            bytesHash(payload)})
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    return out + payload;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** expectIdentical, with doubles compared by bit pattern (NaN too). */
void
expectSameBits(const CompiledProgram &a, const CompiledProgram &b)
{
    EXPECT_EQ(a.mapperName, b.mapperName);
    EXPECT_EQ(a.programName, b.programName);
    EXPECT_EQ(a.layout, b.layout);
    EXPECT_EQ(a.junctions, b.junctions);
    EXPECT_TRUE(a.schedule.identicalTo(b.schedule));
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(bitsOf(a.logReliability), bitsOf(b.logReliability));
    EXPECT_EQ(bitsOf(a.predictedSuccess), bitsOf(b.predictedSuccess));
    EXPECT_EQ(a.swapCount, b.swapCount);
    EXPECT_EQ(bitsOf(a.compileSeconds), bitsOf(b.compileSeconds));
    EXPECT_EQ(a.solverOptimal, b.solverOptimal);
    EXPECT_EQ(a.solverStatus, b.solverStatus);
    ASSERT_EQ(a.stageTraces.size(), b.stageTraces.size());
    for (std::size_t i = 0; i < a.stageTraces.size(); ++i) {
        EXPECT_EQ(a.stageTraces[i].stage, b.stageTraces[i].stage);
        EXPECT_EQ(a.stageTraces[i].pass, b.stageTraces[i].pass);
        EXPECT_EQ(bitsOf(a.stageTraces[i].seconds),
                  bitsOf(b.stageTraces[i].seconds));
        EXPECT_EQ(a.stageTraces[i].note, b.stageTraces[i].note);
    }
}

/**
 * The decoder's contract on any bytes: it rejects them, or the
 * program it returns serializes to a frame that decodes back to the
 * same program. Returns whether the bytes were accepted.
 */
bool
rejectsOrRoundTrips(const std::string &bytes)
{
    CompiledProgram p;
    if (!daemon::deserializeCompiledProgram(bytes, p))
        return false;
    const std::string again = daemon::serializeCompiledProgram(p);
    CompiledProgram back;
    EXPECT_TRUE(daemon::deserializeCompiledProgram(again, back));
    expectSameBits(p, back);
    return true;
}

TEST(ProgramSerdes, HostilePayloadsAreRejectedOrRoundTrip)
{
    // Frames of real heuristic programs, mutated by seeded byte
    // flips, insertions and deletions behind a re-patched header: the
    // checksum alone would reject nearly every mutant unread.
    std::vector<std::string> frames;
    for (const ByteGolden &g : {kByteGoldens[0], kByteGoldens[7]}) {
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
            frames.push_back(daemon::serializeCompiledProgram(r.program));
        }
    }

    Rng rng(test::kSeed, "serdes-mutants");
    int accepted = 0;
    for (const std::string &frame : frames) {
        for (int m = 0; m < 200; ++m) {
            std::string payload = payloadOf(frame);
            const int edits = rng.uniformInt(1, 4);
            for (int e = 0; e < edits && !payload.empty(); ++e) {
                const auto at = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(payload.size()) - 1));
                const char byte =
                    static_cast<char>(rng.uniformInt(1, 255));
                switch (rng.uniformInt(0, 2)) {
                case 0:
                    payload[at] = static_cast<char>(payload[at] ^ byte);
                    break;
                case 1:
                    payload.insert(payload.begin() + at, byte);
                    break;
                default:
                    payload.erase(at, 1);
                    break;
                }
            }
            SCOPED_TRACE("mutant " + std::to_string(m));
            accepted += rejectsOrRoundTrips(reframed(frame, payload));
        }
    }
    // Some mutants land in a double or a string and decode.
    EXPECT_GT(accepted, 0);
}

TEST(ProgramSerdes, PayloadCutAtEveryLengthIsRejected)
{
    GridTopology topo(2, 4);
    auto machine = std::make_shared<const Machine>(
        topo, test::uniformCalibration(topo));
    CompilerOptions opts;
    opts.mapper = MapperKind::GreedyE;
    PipelineResult result = standardPipeline(machine, opts)
                                .run(benchmarkByName("Toffoli").circuit);
    ASSERT_TRUE(result.hasProgram);
    const std::string frame =
        daemon::serializeCompiledProgram(result.program);
    const std::string payload = payloadOf(frame);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        SCOPED_TRACE("payload cut to " + std::to_string(len));
        EXPECT_FALSE(
            rejectsOrRoundTrips(reframed(frame, payload.substr(0, len))));
    }
}

/** LEB128 of `v`, as the payload stores an integer. */
std::string
varint(std::uint64_t v)
{
    std::string out;
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<char>(v | 0x80));
    out.push_back(static_cast<char>(v));
    return out;
}

/** Whether `payload` decodes behind `frame`'s re-patched header. */
bool
decodes(const std::string &frame, const std::string &payload)
{
    CompiledProgram out;
    return daemon::deserializeCompiledProgram(reframed(frame, payload),
                                              out);
}

TEST(ProgramSerdes, RejectsVarintOverTenBytesOrSixtyFourBits)
{
    // The payload opens with mapperName's length, 8 ("GreedyE*").
    const std::string frame =
        daemon::serializeCompiledProgram(sampleProgram());
    ASSERT_EQ(payloadOf(frame)[0], '\x08');
    const std::string rest = payloadOf(frame).substr(1);
    const std::string eight_in_ten = '\x88' + std::string(8, '\x80');
    EXPECT_TRUE(decodes(frame, eight_in_ten + '\0' + rest));
    EXPECT_FALSE(decodes(frame, eight_in_ten + '\x80' + '\0' + rest));
    // Bit 64 set in the tenth byte: 8 once it wraps, so it must fail.
    EXPECT_FALSE(decodes(frame, eight_in_ten + '\x02' + rest));
}

TEST(ProgramSerdes, RejectsIntFieldOutOfRange)
{
    CompiledProgram p;
    p.layout = {5};
    const std::string frame = daemon::serializeCompiledProgram(p);
    // Two empty names, then a layout of one entry: zigzag(5) is 10.
    const std::string head("\0\0\x01", 3);
    ASSERT_EQ(payloadOf(frame).substr(0, 4), head + '\x0a');
    const std::string rest = payloadOf(frame).substr(4);
    EXPECT_TRUE(decodes(frame, head + varint(0xfffffffeull) + rest));
    EXPECT_TRUE(decodes(frame, head + varint(0xffffffffull) + rest));
    EXPECT_FALSE(decodes(frame, head + varint(0x100000000ull) + rest));
    EXPECT_FALSE(decodes(frame, head + varint(0x100000001ull) + rest));
}

TEST(ProgramSerdes, RejectsCountBeyondBytesLeft)
{
    CompiledProgram p;
    p.layout = {5};
    const std::string frame = daemon::serializeCompiledProgram(p);
    const std::string names("\0\0", 2);
    const std::string rest = payloadOf(frame).substr(3); // after the count
    EXPECT_TRUE(decodes(frame, names + varint(1) + rest));
    EXPECT_FALSE(decodes(frame, names + varint(rest.size() + 1) + rest));
    // Taken at its word, this count would ask for exabytes.
    EXPECT_FALSE(decodes(frame, names + varint(1ull << 62) + rest));
}

TEST(ProgramSerdes, RejectsTrailingPayloadBytes)
{
    const std::string frame =
        daemon::serializeCompiledProgram(sampleProgram());
    EXPECT_TRUE(decodes(frame, payloadOf(frame)));
    EXPECT_FALSE(decodes(frame, payloadOf(frame) + '\0'));
}

} // namespace
