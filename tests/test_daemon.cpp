/**
 * @file
 * Compile-daemon tests: the three subsystem pillars — sharded
 * admission queue with per-tenant quotas, persistent content-
 * addressed cache surviving restart and corruption, zero-downtime
 * calibration rollover — plus the protocol helpers and the
 * end-to-end guarantee that daemon output is bit-identical to the
 * one-shot pipeline.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "daemon/daemon.hpp"
#include "daemon/net.hpp"
#include "daemon/program_serdes.hpp"
#include "daemon/protocol.hpp"
#include "ir/qasm.hpp"
#include "machine/calibration_model.hpp"
#include "service/fingerprints.hpp"
#include "support/rng.hpp"
#include "tests/test_util.hpp"
#include "verify/mutate.hpp"
#include "workloads/benchmarks.hpp"

namespace {

using namespace qc;
using daemon::CompileDaemon;
using daemon::DaemonOptions;
using daemon::JobSnapshot;
using daemon::Lane;

namespace fs = std::filesystem;

/** Fresh, empty scratch directory removed on destruction. */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const std::string &name)
        : path(fs::temp_directory_path() /
               ("naqc-test-" + name + "-" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
};

GridTopology
topo()
{
    return GridTopology(2, 4);
}

Calibration
day(int d)
{
    return CalibrationModel(topo(), test::kSeed).forDay(d);
}

DaemonOptions
fastOptions()
{
    DaemonOptions opts;
    opts.threads = 2;
    opts.shards = 2;
    return opts;
}

CompilerOptions
greedyOptions()
{
    CompilerOptions copts;
    copts.mapper = MapperKind::GreedyE;
    return copts;
}

/** A small circuit that differs from variant(j) for every j != i. */
Circuit
variant(int i)
{
    Circuit c("v" + std::to_string(i), 4);
    for (int bit = 0; bit < 13; ++bit) {
        if ((i >> bit) & 1)
            c.cnot(bit % 3, 3);
        else
            c.h(bit % 4);
    }
    for (int q = 0; q < 4; ++q)
        c.measure(q, q);
    return c;
}

JobSnapshot
submitAndWait(CompileDaemon &d, const Circuit &circuit,
              const std::string &tenant = "t0",
              Lane lane = Lane::Normal)
{
    CompileDaemon::SubmitOutcome out = d.submit(
        tenant, lane, circuit, greedyOptions(), circuit.name());
    EXPECT_TRUE(out.accepted) << out.reason;
    JobSnapshot snap;
    EXPECT_TRUE(d.wait(out.id, snap));
    EXPECT_EQ(snap.state, daemon::JobState::Done);
    return snap;
}

// ---------------------------------------------------------------- //
// Protocol helpers
// ---------------------------------------------------------------- //

TEST(Protocol, ParsesCommandArgsAndBareFlags)
{
    daemon::Request req = daemon::parseRequest(
        "SUBMIT bench=BV4  tenant=alice \t wait priority=high");
    EXPECT_EQ(req.command, "submit");
    EXPECT_EQ(req.get("bench"), "BV4");
    EXPECT_EQ(req.get("tenant"), "alice");
    EXPECT_EQ(req.get("priority"), "high");
    EXPECT_EQ(req.get("wait"), "1"); // bare flag
    EXPECT_EQ(req.get("absent", "fallback"), "fallback");
    EXPECT_TRUE(daemon::parseRequest("").command.empty());
}

TEST(Protocol, LaneNamesRoundTrip)
{
    Lane lane;
    ASSERT_TRUE(daemon::laneFromName("high", lane));
    EXPECT_EQ(lane, Lane::High);
    ASSERT_TRUE(daemon::laneFromName("low", lane));
    EXPECT_EQ(lane, Lane::Low);
    EXPECT_FALSE(daemon::laneFromName("urgent", lane));
    EXPECT_STREQ(daemon::laneName(Lane::Normal), "normal");
}

// ---------------------------------------------------------------- //
// Line channel
// ---------------------------------------------------------------- //

/** A LineChannel reading one end of a socketpair; write the other. */
struct ChannelPair
{
    std::unique_ptr<daemon::LineChannel> reader;
    int writer = -1;

    ChannelPair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        reader = std::make_unique<daemon::LineChannel>(fds[0]);
        writer = fds[1];
    }
    ~ChannelPair() { closeWriter(); }

    void
    send(const std::string &bytes)
    {
        ASSERT_EQ(::write(writer, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }

    void
    closeWriter()
    {
        if (writer >= 0)
            ::close(writer);
        writer = -1;
    }

    std::string
    line()
    {
        std::string text;
        EXPECT_TRUE(reader->readLine(text));
        return text;
    }
};

TEST(LineChannel, SplitsLinesAcrossAndWithinReads)
{
    ChannelPair ch;
    // Several lines in one read, the last one cut off...
    ch.send("a\nbb\nccc\nsec");
    EXPECT_EQ(ch.line(), "a");
    EXPECT_EQ(ch.line(), "bb");
    EXPECT_EQ(ch.line(), "ccc");
    // ...and finished by the next read.
    ch.send("ond\n\nthird\n");
    EXPECT_EQ(ch.line(), "second");
    EXPECT_EQ(ch.line(), "");
    EXPECT_EQ(ch.line(), "third");
}

TEST(LineChannel, StripsOneCarriageReturnBeforeNewline)
{
    ChannelPair ch;
    ch.send("crlf\r\n\r\nin\rside\ntwo\r\r\n");
    EXPECT_EQ(ch.line(), "crlf");
    EXPECT_EQ(ch.line(), "");
    EXPECT_EQ(ch.line(), "in\rside");
    EXPECT_EQ(ch.line(), "two\r");
}

TEST(LineChannel, ReadsPayloadLargerThanOneReadChunk)
{
    // 1,000 short lines around one 10,000-byte line: both the many
    // lines per 4 KB read and the line spanning several reads.
    ChannelPair ch;
    std::string payload;
    for (int i = 0; i < 1000; ++i) {
        payload += "line " + std::to_string(i) + "\n";
        if (i == 500)
            payload += std::string(10000, 'x') + "\n";
    }
    ch.send(payload);
    ch.closeWriter();
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(ch.line(), "line " + std::to_string(i));
        if (i == 500)
            ASSERT_EQ(ch.line(), std::string(10000, 'x'));
    }
    std::string rest;
    EXPECT_FALSE(ch.reader->readLine(rest));
}

TEST(LineChannel, DropsPartialLastLineAtEof)
{
    ChannelPair ch;
    ch.send("done\npartial");
    ch.closeWriter();
    EXPECT_EQ(ch.line(), "done");
    std::string rest;
    EXPECT_FALSE(ch.reader->readLine(rest));
    EXPECT_FALSE(ch.reader->readLine(rest));
}

TEST(LineChannel, DiscardsALineOverTheCapAndStaysInStep)
{
    ChannelPair ch;
    // The socket buffer holds far less than 2 MiB: write on a thread.
    std::thread writer(
        [&ch] { ch.send(std::string(2u << 20, 'x') + "\nping\n"); });
    std::string line = "stale";
    EXPECT_TRUE(ch.reader->readLine(line));
    EXPECT_TRUE(ch.reader->lineTooLarge());
    EXPECT_TRUE(line.empty());
    EXPECT_EQ(ch.line(), "ping");
    EXPECT_FALSE(ch.reader->lineTooLarge());
    writer.join();
}

/** This process's resident set in kB, from /proc/self/status. */
std::size_t
residentKb()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    std::size_t kb = 0;
    while (in >> key)
        if (key == "VmRSS:" && in >> kb)
            break;
    return kb;
}

TEST(LineChannel, OverlongLineKeepsTheBufferBounded)
{
    // 128 MiB without a newline: a reader that kept the line would
    // hold all of it, and keep the buffer's capacity afterwards.
    ChannelPair ch;
    std::thread writer([&ch] {
        const std::string chunk(1u << 20, 'x');
        for (int i = 0; i < 128; ++i)
            ch.send(chunk);
        ch.send("\nping\n");
    });
    const std::size_t before = residentKb();
    std::string line;
    EXPECT_TRUE(ch.reader->readLine(line));
    EXPECT_TRUE(ch.reader->lineTooLarge());
    EXPECT_LT(residentKb(), before + 32 * 1024);
    EXPECT_EQ(ch.line(), "ping");
    writer.join();
}

TEST(LineChannel, ReturnsALineOfExactlyTheCap)
{
    ChannelPair ch;
    const std::string at_cap(daemon::kMaxLineBytes, 'y');
    std::thread writer([&] {
        ch.send(at_cap + "\r\n" + at_cap + "z\nend\n");
    });
    EXPECT_EQ(ch.line(), at_cap);
    EXPECT_FALSE(ch.reader->lineTooLarge());
    EXPECT_EQ(ch.line(), "");
    EXPECT_TRUE(ch.reader->lineTooLarge());
    EXPECT_EQ(ch.line(), "end");
    writer.join();
}

// ---------------------------------------------------------------- //
// Submission queue
// ---------------------------------------------------------------- //

TEST(SubmissionQueue, LaneMajorAcrossShardsWithStealing)
{
    daemon::ShardedSubmissionQueue q(2);
    q.push(0, Lane::Low, 1);
    q.push(0, Lane::Normal, 2);
    q.push(1, Lane::High, 3);

    std::uint64_t id = 0;
    bool stolen = false;
    // Home shard 0 has no high-lane job: the high job on shard 1
    // must still drain before any normal/low job.
    ASSERT_TRUE(q.tryPop(0, id, stolen));
    EXPECT_EQ(id, 3u);
    EXPECT_TRUE(stolen);
    ASSERT_TRUE(q.tryPop(0, id, stolen));
    EXPECT_EQ(id, 2u);
    EXPECT_FALSE(stolen);
    ASSERT_TRUE(q.tryPop(0, id, stolen));
    EXPECT_EQ(id, 1u);
    EXPECT_FALSE(stolen);
    EXPECT_FALSE(q.tryPop(0, id, stolen));

    daemon::QueueStats stats = q.stats();
    EXPECT_EQ(stats.pushes, 3u);
    EXPECT_EQ(stats.pops, 3u);
    EXPECT_EQ(stats.steals, 1u);
    EXPECT_EQ(stats.depth, 0u);
}

TEST(SubmissionQueue, TenantAlwaysHashesToSameShard)
{
    daemon::ShardedSubmissionQueue q(4);
    const int shard = q.shardForTenant("alice");
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(q.shardForTenant("alice"), shard);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
}

// ---------------------------------------------------------------- //
// Daemon: compile correctness and caching
// ---------------------------------------------------------------- //

TEST(Daemon, BitIdenticalToOneShotPipeline)
{
    CompileDaemon d(topo(), day(0), fastOptions());

    auto machine =
        std::make_shared<const Machine>(topo(), day(0));
    for (const char *name : {"BV4", "Toffoli", "Fredkin"}) {
        const Benchmark bench = benchmarkByName(name);
        PipelineResult direct =
            standardPipeline(machine, greedyOptions())
                .run(bench.circuit);
        ASSERT_TRUE(direct.hasProgram);

        JobSnapshot snap = submitAndWait(d, bench.circuit);
        ASSERT_TRUE(snap.result.ok);
        EXPECT_EQ(
            emitQasm(snap.result.program->hwCircuit(
                bench.circuit.numClbits())),
            emitQasm(direct.program.hwCircuit(
                bench.circuit.numClbits())))
            << name;
    }
}

TEST(Daemon, RepeatSubmitHitsMemoryCache)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    const Circuit circuit = benchmarkByName("BV4").circuit;

    JobSnapshot first = submitAndWait(d, circuit);
    EXPECT_EQ(first.cacheSource, daemon::CacheSource::None);
    JobSnapshot second = submitAndWait(d, circuit, "t1");
    EXPECT_EQ(second.cacheSource, daemon::CacheSource::Memory);
    EXPECT_TRUE(second.result.cacheHit);
    // The cached frame decodes to the first job's program, compile
    // and stage timings included, bit for bit: not a recompile.
    EXPECT_EQ(daemon::serializeCompiledProgram(*second.result.program),
              daemon::serializeCompiledProgram(*first.result.program));
}

TEST(Daemon, MemoryTierCountsExactFrameBytes)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    std::size_t frame_bytes = 0;
    for (int i = 0; i < 6; ++i) {
        JobSnapshot snap = submitAndWait(d, variant(i));
        ASSERT_TRUE(snap.result.ok);
        frame_bytes +=
            daemon::serializeCompiledProgram(*snap.result.program).size();
    }
    // Repeats hit the tier and add nothing to it.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(submitAndWait(d, variant(i), "t1").cacheSource,
                  daemon::CacheSource::Memory);

    const service::CompileCacheStats mem = d.stats().memCache;
    EXPECT_EQ(mem.entries, 6u);
    EXPECT_EQ(mem.bytes, frame_bytes);
}

TEST(Daemon, CacheByteCapBoundsResidentFrames)
{
    // Room for the frames of the first three jobs, not all six.
    std::size_t three = 0;
    {
        CompileDaemon probe(topo(), day(0), fastOptions());
        for (int i = 0; i < 3; ++i)
            three += daemon::serializeCompiledProgram(
                         *submitAndWait(probe, variant(i)).result.program)
                         .size();
    }
    DaemonOptions opts = fastOptions();
    opts.cacheByteCapacity = three;
    CompileDaemon d(topo(), day(0), opts);
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(submitAndWait(d, variant(i)).result.ok);

    const service::CompileCacheStats mem = d.stats().memCache;
    EXPECT_LE(mem.bytes, three);
    EXPECT_LT(mem.entries, 6u);
    EXPECT_GT(mem.evictions, 0u);
}

TEST(Daemon, OverQuotaSubmitIsRejectedStructurally)
{
    DaemonOptions opts;
    opts.threads = 1;
    opts.shards = 1;
    opts.tenantQuota = 1;
    CompileDaemon d(topo(), day(0), opts);

    // A dense circuit keeps the single worker busy long enough for
    // the second submit to land while the first is in flight.
    Circuit big("big", 8);
    for (int round = 0; round < 40; ++round)
        for (int q = 0; q + 1 < 8; ++q)
            big.cnot(q, q + 1);

    CompileDaemon::SubmitOutcome first =
        d.submit("alice", Lane::Normal, big, greedyOptions(), "j1");
    ASSERT_TRUE(first.accepted);
    CompileDaemon::SubmitOutcome second =
        d.submit("alice", Lane::Normal, big, greedyOptions(), "j2");
    EXPECT_FALSE(second.accepted);
    EXPECT_EQ(second.reason.rfind("rejected:over-quota", 0), 0u)
        << second.reason;

    // Another tenant is not affected by alice's quota.
    CompileDaemon::SubmitOutcome other = d.submit(
        "bob", Lane::Normal, benchmarkByName("BV4").circuit,
        greedyOptions(), "j3");
    EXPECT_TRUE(other.accepted);

    d.awaitIdle();
    daemon::DaemonStats stats = d.stats();
    EXPECT_EQ(stats.rejected, 1u);
    for (const daemon::TenantStats &t : stats.tenants) {
        if (t.tenant == "alice") {
            EXPECT_EQ(t.rejected, 1u);
            EXPECT_EQ(t.completed, 1u);
            EXPECT_EQ(t.inFlight, 0u);
        }
    }
}

TEST(Daemon, NegativeWarmTopKIsRejected)
{
    DaemonOptions opts = fastOptions();
    opts.warmTopK = -1;
    EXPECT_THROW(CompileDaemon(topo(), day(0), opts), FatalError);
}

TEST(Daemon, IdleTenantEntriesAreCapped)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    const Circuit bv4 = benchmarkByName("BV4").circuit;
    for (int i = 0; i < 2000; ++i)
        ASSERT_TRUE(
            submitAndWait(d, bv4, "t" + std::to_string(i)).result.ok);

    daemon::DaemonStats stats = d.stats();
    EXPECT_EQ(stats.tenants.size(), daemon::kMaxIdleTenants);
    EXPECT_EQ(stats.submitted, 2000u);
    EXPECT_EQ(stats.completed, 2000u);
    // The least recently active went first.
    auto has = [&](const std::string &name) {
        return std::any_of(stats.tenants.begin(), stats.tenants.end(),
                           [&](const daemon::TenantStats &t) {
                               return t.tenant == name;
                           });
    };
    EXPECT_FALSE(has("t0"));
    EXPECT_FALSE(has("t975"));
    EXPECT_TRUE(has("t976"));
    EXPECT_TRUE(has("t1999"));
}

TEST(Daemon, ShutdownRejectsNewSubmits)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    d.beginShutdown();
    EXPECT_FALSE(d.acceptingJobs());
    CompileDaemon::SubmitOutcome out = d.submit(
        "t0", Lane::Normal, benchmarkByName("BV4").circuit,
        greedyOptions(), "late");
    EXPECT_FALSE(out.accepted);
    EXPECT_EQ(out.reason, "rejected:shutting-down");
}

TEST(Daemon, DegradedJobsAreServedButNeverCached)
{
    if (test::kThreadSanitizer)
        GTEST_SKIP() << "completes a timed Z3 check (see test_util.hpp)";

    ScratchDir scratch("degraded");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();

    // T2 windows shorter than any gate make the SMT coherence
    // constraints unsatisfiable: T-SMT* degrades to its fallback.
    Calibration cal = test::uniformCalibration(topo());
    cal.t2Us.assign(topo().numQubits(), 1e-3);
    CompileDaemon d(topo(), cal, opts);

    CompilerOptions tsmt;
    tsmt.mapper = MapperKind::TSmtStar;
    const Circuit bv4 = benchmarkByName("BV4").circuit;
    for (const char *tag : {"degraded-1", "degraded-2"}) {
        SCOPED_TRACE(tag);
        CompileDaemon::SubmitOutcome out =
            d.submit("t0", Lane::Normal, bv4, tsmt, tag);
        ASSERT_TRUE(out.accepted) << out.reason;
        JobSnapshot snap;
        ASSERT_TRUE(d.wait(out.id, snap));
        EXPECT_TRUE(snap.result.ok) << snap.result.error();
        EXPECT_EQ(snap.result.status.code, CompileStatusCode::Infeasible);
        EXPECT_EQ(snap.cacheSource, daemon::CacheSource::None);
        EXPECT_NE(snap.result.program, nullptr);
    }

    daemon::DaemonStats stats = d.stats();
    EXPECT_EQ(stats.memCache.entries, 0u);
    EXPECT_EQ(stats.disk.stores, 0u);
    EXPECT_EQ(stats.diskEntries, 0u);
}

TEST(Daemon, FailedJobIsNeverCached)
{
    ScratchDir scratch("failed");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    CompileDaemon d(topo(), day(0), opts);

    Circuit big("big", 9); // 9 qubits on an 8-qubit grid
    big.h(8);
    big.measure(8, 0);
    JobSnapshot failed = submitAndWait(d, big);
    EXPECT_FALSE(failed.result.ok);
    EXPECT_EQ(failed.result.status.code, CompileStatusCode::Infeasible);
    EXPECT_EQ(failed.result.program, nullptr);
    EXPECT_EQ(failed.result.machine, nullptr);

    daemon::DaemonStats stats = d.stats();
    EXPECT_EQ(stats.memCache.entries, 0u);
    EXPECT_EQ(stats.disk.stores, 0u);
    EXPECT_EQ(stats.diskEntries, 0u);
}

// ---------------------------------------------------------------- //
// Daemon: what a finished job keeps
// ---------------------------------------------------------------- //

TEST(Daemon, SubmitterWaitCollectsTheProgramOnce)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    const Circuit bv4 = benchmarkByName("BV4").circuit;

    // A memory hit can finish before its submitter waits: the program
    // stays until that wait.
    submitAndWait(d, bv4);
    CompileDaemon::SubmitOutcome out =
        d.submit("t0", Lane::Normal, bv4, greedyOptions(), "hit");
    ASSERT_TRUE(out.accepted);
    d.awaitIdle();
    EXPECT_EQ(d.stats().programsHeld, 1u);

    // Another thread's wait sees the program but leaves it in place.
    JobSnapshot other;
    std::thread([&] { EXPECT_TRUE(d.wait(out.id, other)); }).join();
    EXPECT_NE(other.result.program, nullptr);
    EXPECT_EQ(d.stats().programsHeld, 1u);

    JobSnapshot mine;
    ASSERT_TRUE(d.wait(out.id, mine));
    ASSERT_NE(mine.result.program, nullptr);
    EXPECT_NE(mine.result.machine, nullptr);
    EXPECT_EQ(mine.cacheSource, daemon::CacheSource::Memory);
    EXPECT_EQ(d.stats().programsHeld, 0u);

    // From here on the record answers from its summary alone.
    for (bool wait : {false, true}) {
        SCOPED_TRACE(wait ? "wait" : "status");
        JobSnapshot later;
        ASSERT_TRUE(wait ? d.wait(out.id, later)
                         : d.status(out.id, later));
        EXPECT_EQ(later.result.program, nullptr);
        EXPECT_EQ(later.result.machine, nullptr);
        EXPECT_TRUE(later.result.ok);
        EXPECT_EQ(later.result.tag, "hit");
        EXPECT_EQ(later.cacheSource, daemon::CacheSource::Memory);
        EXPECT_TRUE(later.summary.hasProgram);
        EXPECT_EQ(later.summary.swapCount,
                  mine.result.program->swapCount);
        EXPECT_EQ(later.summary.duration,
                  mine.result.program->duration);
        EXPECT_EQ(later.summary.predictedSuccess,
                  mine.result.program->predictedSuccess);
    }
}

TEST(Daemon, RetainedStateStaysFlatByCount)
{
    DaemonOptions opts = fastOptions();
    opts.jobHistory = 64;
    opts.warmTopK = 8;
    CompileDaemon d(topo(), day(0), opts);

    // 2,000 rounds under 2,000 tenant names: a job nobody will wait
    // for, then a waited one, every circuit distinct.
    for (int i = 0; i < 2000; ++i) {
        const std::string tenant = "t" + std::to_string(i);
        CompileDaemon::SubmitOutcome unwaited = d.submit(
            tenant, Lane::Normal, variant(2 * i), greedyOptions(),
            "unwaited", false);
        ASSERT_TRUE(unwaited.accepted) << unwaited.reason;
        JobSnapshot waited = submitAndWait(d, variant(2 * i + 1), tenant);
        ASSERT_TRUE(waited.result.ok) << waited.result.error();
        ASSERT_NE(waited.result.program, nullptr);

        // Look without collecting: the unwaited job dropped its program
        // when it finished, and its summary still reads ok.
        JobSnapshot dropped;
        ASSERT_TRUE(d.wait(unwaited.id, dropped));
        ASSERT_TRUE(dropped.result.ok) << dropped.result.error();
        EXPECT_TRUE(dropped.summary.hasProgram);
        EXPECT_EQ(dropped.result.program, nullptr);
    }
    d.awaitIdle();

    daemon::DaemonStats stats = d.stats();
    EXPECT_EQ(stats.completed, 4000u);
    EXPECT_LE(stats.records, 64u);
    EXPECT_EQ(stats.programsHeld, 0u);
    EXPECT_LE(stats.hotEntries, 32u);
    EXPECT_LE(stats.tenants.size(), daemon::kMaxIdleTenants);
}

TEST(Daemon, FinishedRecordsStayCompact)
{
    // A full default history of collected memory hits. Each record
    // keeps what `status` and `wait` report, so 65,536 of them stay
    // under 10 MB (a record that kept its whole result took ~600 B).
    if (test::kThreadSanitizer || test::kAddressSanitizer)
        GTEST_SKIP() << "the sanitizer's allocator sets resident size";
    CompileDaemon d(topo(), day(0), fastOptions());
    const Circuit bv4 = benchmarkByName("BV4").circuit;
    for (int i = 0; i < 1000; ++i)
        submitAndWait(d, bv4);

    const std::size_t history = DaemonOptions().jobHistory;
    const std::size_t before = residentKb();
    for (std::size_t i = 0; i < history; ++i)
        submitAndWait(d, bv4);
    EXPECT_EQ(d.stats().records, history);
    EXPECT_LT(residentKb(), before + 10 * 1024);
}

// ---------------------------------------------------------------- //
// Daemon: persistent cache
// ---------------------------------------------------------------- //

TEST(Daemon, RestartServesWorkingSetFromDisk)
{
    ScratchDir scratch("restart");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();

    std::vector<std::string> names = {"BV4",     "BV6",    "Toffoli",
                                      "Fredkin", "Or",     "Peres",
                                      "HS2",     "HS4"};
    {
        CompileDaemon d(topo(), day(0), opts);
        for (const std::string &n : names)
            ASSERT_TRUE(
                submitAndWait(d, benchmarkByName(n).circuit)
                    .result.ok);
        daemon::DaemonStats stats = d.stats();
        EXPECT_EQ(stats.disk.stores, names.size());
        EXPECT_EQ(stats.diskEntries, names.size());
    }

    // Fresh daemon, same cache dir: the whole working set must come
    // back from disk (the >= 90% restart acceptance bar; here 100%).
    CompileDaemon d2(topo(), day(0), opts);
    std::size_t disk_hits = 0;
    for (const std::string &n : names) {
        JobSnapshot snap =
            submitAndWait(d2, benchmarkByName(n).circuit);
        ASSERT_TRUE(snap.result.ok);
        if (snap.cacheSource == daemon::CacheSource::Disk)
            ++disk_hits;
    }
    EXPECT_EQ(disk_hits, names.size());
    EXPECT_EQ(d2.stats().diskHits, names.size());

    // ... and bit-identical to a direct compile.
    auto machine =
        std::make_shared<const Machine>(topo(), day(0));
    const Benchmark bench = benchmarkByName("Toffoli");
    PipelineResult direct =
        standardPipeline(machine, greedyOptions()).run(bench.circuit);
    JobSnapshot cached = submitAndWait(d2, bench.circuit);
    EXPECT_EQ(emitQasm(cached.result.program->hwCircuit(
                  bench.circuit.numClbits())),
              emitQasm(direct.program.hwCircuit(
                  bench.circuit.numClbits())));
}

TEST(Daemon, OrphanedTempFilesAreSweptOnOpen)
{
    ScratchDir scratch("orphan");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    const Circuit circuit = benchmarkByName("BV4").circuit;
    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
    }

    // What a kill between a store's write and its rename leaves.
    const fs::path orphan =
        scratch.path / "0123456789abcdef-0-0.ncp.tmp.7";
    std::ofstream(orphan, std::ios::binary) << "half a frame";
    ASSERT_TRUE(fs::exists(orphan));

    CompileDaemon d2(topo(), day(0), opts);
    EXPECT_FALSE(fs::exists(orphan));
    EXPECT_EQ(d2.stats().diskEntries, 1u);
    EXPECT_EQ(submitAndWait(d2, circuit).cacheSource,
              daemon::CacheSource::Disk);
}

TEST(Daemon, CorruptCacheEntryIsRejectedAndRecompiled)
{
    ScratchDir scratch("corrupt");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    const Circuit circuit = benchmarkByName("BV4").circuit;

    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
    }

    // Damage every entry on disk.
    for (const fs::directory_entry &e :
         fs::directory_iterator(scratch.path)) {
        std::ofstream out(e.path(), std::ios::binary);
        out << "garbage";
    }

    CompileDaemon d2(topo(), day(0), opts);
    JobSnapshot snap = submitAndWait(d2, circuit);
    ASSERT_TRUE(snap.result.ok);
    // Not served from disk: the corrupt entry was unlinked and the
    // job recompiled (then re-stored, healing the cache).
    EXPECT_EQ(snap.cacheSource, daemon::CacheSource::None);
    daemon::DaemonStats stats = d2.stats();
    EXPECT_EQ(stats.disk.corruptRejected, 1u);
    EXPECT_EQ(stats.disk.stores, 1u);

    JobSnapshot healed = submitAndWait(d2, circuit, "t1");
    EXPECT_EQ(healed.cacheSource, daemon::CacheSource::Memory);
}

TEST(Daemon, StaleVersionEntryIsRecompiledAndRestored)
{
    ScratchDir scratch("upgrade");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    const Circuit circuit = benchmarkByName("BV4").circuit;

    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
    }

    // An entry an older writer left: version 1 in header bytes 4-7.
    // The checksum covers only the payload, so the frame is otherwise
    // intact.
    const auto version_of = [](const fs::path &path) {
        std::ifstream in(path, std::ios::binary);
        std::string header(8, '\0');
        in.read(header.data(), 8);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(header[4 + i]))
                 << (8 * i);
        return v;
    };
    std::vector<fs::path> entries;
    for (const fs::directory_entry &e :
         fs::directory_iterator(scratch.path))
        entries.push_back(e.path());
    ASSERT_EQ(entries.size(), 1u);
    const fs::path entry = entries[0];
    {
        std::fstream io(entry,
                        std::ios::binary | std::ios::in | std::ios::out);
        io.seekp(4);
        io.write("\x01\0\0\0", 4);
    }
    ASSERT_EQ(version_of(entry), 1u);

    {
        CompileDaemon d2(topo(), day(0), opts);
        JobSnapshot snap = submitAndWait(d2, circuit);
        ASSERT_TRUE(snap.result.ok);
        EXPECT_EQ(snap.cacheSource, daemon::CacheSource::None);
        daemon::DaemonStats stats = d2.stats();
        EXPECT_EQ(stats.disk.corruptRejected, 1u);
        EXPECT_EQ(stats.disk.stores, 1u);
    }
    EXPECT_EQ(version_of(entry), daemon::kProgramSerdesVersion);

    CompileDaemon d3(topo(), day(0), opts);
    JobSnapshot again = submitAndWait(d3, circuit);
    ASSERT_TRUE(again.result.ok);
    EXPECT_EQ(again.cacheSource, daemon::CacheSource::Disk);
    EXPECT_EQ(d3.stats().verifiedOnLoad, 1u);
}

TEST(Daemon, DiskEntriesAreVerifiedOnLoad)
{
    ScratchDir scratch("verify-load");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    const Circuit circuit = benchmarkByName("BV4").circuit;

    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
        EXPECT_EQ(d.stats().verifiedOnLoad, 0u); // no disk load yet
    }

    CompileDaemon d2(topo(), day(0), opts);
    JobSnapshot snap = submitAndWait(d2, circuit);
    ASSERT_TRUE(snap.result.ok);
    EXPECT_EQ(snap.cacheSource, daemon::CacheSource::Disk);
    daemon::DaemonStats stats = d2.stats();
    EXPECT_EQ(stats.verifiedOnLoad, 1u);
    EXPECT_EQ(stats.healed, 0u);
}

TEST(Daemon, ChecksumValidButBrokenEntryIsHealedOnLoad)
{
    ScratchDir scratch("heal");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    const Circuit circuit = benchmarkByName("BV4").circuit;

    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
    }

    // Rewrite every entry as a *well-framed* blob whose program is
    // semantically broken (a dropped gate): the checksum passes, so
    // only verify-on-load can catch it.
    auto machine = std::make_shared<const Machine>(topo(), day(0));
    std::size_t rewritten = 0;
    for (const fs::directory_entry &e :
         fs::directory_iterator(scratch.path)) {
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream oss;
        oss << in.rdbuf();
        in.close();
        CompiledProgram program;
        ASSERT_TRUE(
            daemon::deserializeCompiledProgram(oss.str(), program));
        Rng rng(test::kSeed);
        ASSERT_TRUE(applyMutation(program, *machine,
                                  MutationKind::DropGate, rng));
        std::ofstream out(e.path(), std::ios::binary);
        out << daemon::serializeCompiledProgram(program);
        ++rewritten;
    }
    ASSERT_EQ(rewritten, 1u);

    CompileDaemon d2(topo(), day(0), opts);
    JobSnapshot snap = submitAndWait(d2, circuit);
    ASSERT_TRUE(snap.result.ok);
    // The broken entry was purged and the job recompiled fresh.
    EXPECT_EQ(snap.cacheSource, daemon::CacheSource::None);
    daemon::DaemonStats stats = d2.stats();
    EXPECT_EQ(stats.healed, 1u);
    EXPECT_EQ(stats.verifiedOnLoad, 0u);
    EXPECT_EQ(stats.disk.corruptRejected, 0u); // frame was valid
    EXPECT_EQ(stats.disk.stores, 1u);          // re-stored: healed

    // The healed entry now verifies and serves from disk again.
    CompileDaemon d3(topo(), day(0), opts);
    JobSnapshot again = submitAndWait(d3, circuit);
    ASSERT_TRUE(again.result.ok);
    EXPECT_EQ(again.cacheSource, daemon::CacheSource::Disk);
    EXPECT_EQ(d3.stats().verifiedOnLoad, 1u);
    EXPECT_EQ(d3.stats().healed, 0u);
}

TEST(Daemon, VerifyOnLoadCanBeDisabled)
{
    ScratchDir scratch("verify-off");
    DaemonOptions opts = fastOptions();
    opts.cacheDir = scratch.path.string();
    opts.verifyOnLoad = false;
    const Circuit circuit = benchmarkByName("BV4").circuit;

    {
        CompileDaemon d(topo(), day(0), opts);
        ASSERT_TRUE(submitAndWait(d, circuit).result.ok);
    }

    CompileDaemon d2(topo(), day(0), opts);
    JobSnapshot snap = submitAndWait(d2, circuit);
    ASSERT_TRUE(snap.result.ok);
    EXPECT_EQ(snap.cacheSource, daemon::CacheSource::Disk);
    EXPECT_EQ(d2.stats().verifiedOnLoad, 0u);
}

// ---------------------------------------------------------------- //
// Daemon: calibration rollover
// ---------------------------------------------------------------- //

TEST(Daemon, RolloverFlipsEpochForNewJobsOnly)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    const std::uint64_t fp0 = d.currentEpoch()->machineFp;

    JobSnapshot before =
        submitAndWait(d, benchmarkByName("BV4").circuit);
    EXPECT_EQ(before.epochId, 1);

    CompileDaemon::ReloadOutcome reload =
        d.reload(day(1), 1, "test-day-1");
    EXPECT_EQ(reload.epochId, 2);
    d.awaitIdle(); // let warm recompiles drain

    auto epoch = d.currentEpoch();
    EXPECT_EQ(epoch->id, 2);
    EXPECT_EQ(epoch->day, 1);
    EXPECT_NE(epoch->machineFp, fp0);

    JobSnapshot after =
        submitAndWait(d, benchmarkByName("BV4").circuit);
    EXPECT_EQ(after.epochId, 2);
    // Day-1 calibration differs, so the day-0 cache entry must not
    // serve this job... but the rollover warm pass already
    // recompiled BV4 against day 1, so it's a memory hit.
    EXPECT_EQ(after.cacheSource, daemon::CacheSource::Memory);

    daemon::DaemonStats stats = d.stats();
    EXPECT_EQ(stats.epochId, 2);
    EXPECT_GE(stats.warmRecompiles, 1u);
    EXPECT_EQ(stats.rejected, 0u); // zero-downtime: nothing failed
}

TEST(Daemon, RolloverRecompileIsBitIdenticalToNewDayPipeline)
{
    CompileDaemon d(topo(), day(0), fastOptions());
    const Benchmark bench = benchmarkByName("Toffoli");
    submitAndWait(d, bench.circuit);

    d.reload(day(3), 3, "test-day-3");
    JobSnapshot snap = submitAndWait(d, bench.circuit);
    ASSERT_TRUE(snap.result.ok);

    auto machine =
        std::make_shared<const Machine>(topo(), day(3));
    PipelineResult direct =
        standardPipeline(machine, greedyOptions()).run(bench.circuit);
    ASSERT_TRUE(direct.hasProgram);
    EXPECT_EQ(emitQasm(snap.result.program->hwCircuit(
                  bench.circuit.numClbits())),
              emitQasm(direct.program.hwCircuit(
                  bench.circuit.numClbits())));
}

TEST(Daemon, RolloverWarmsTopKByUsesThenFirstSeen)
{
    DaemonOptions opts = fastOptions();
    opts.warmTopK = 4;
    CompileDaemon d(topo(), day(0), opts);

    // Twelve distinct circuits. The three-way tie at 3 uses straddles
    // the top-4 cut, so first-seen order decides which one is warmed.
    const std::vector<int> uses = {2, 3, 1, 3, 2, 4, 1, 3, 1, 2, 3, 1};
    std::vector<Circuit> circuits;
    for (std::size_t i = 0; i < uses.size(); ++i) {
        Circuit c("warm" + std::to_string(i), 3);
        for (std::size_t k = 0; k <= i; ++k)
            c.cnot(static_cast<int>(k % 2), 2);
        c.measure(2, 0);
        circuits.push_back(c);
    }
    // Waiting on each job in turn fixes the first-seen order: every
    // circuit once, in index order, then the repeats.
    std::uint64_t lastId = 0;
    for (std::size_t i = 0; i < circuits.size(); ++i)
        lastId = submitAndWait(d, circuits[i]).id;
    for (std::size_t i = 0; i < circuits.size(); ++i)
        for (int u = 1; u < uses[i]; ++u)
            lastId = submitAndWait(d, circuits[i]).id;

    CompileDaemon::ReloadOutcome reload =
        d.reload(day(1), 1, "test-day-1");
    EXPECT_EQ(reload.warmed, 4);
    d.awaitIdle();

    // Ranked by uses descending, then first seen: circuit 5 (4 uses),
    // then 1, 3 and 7 of the four with 3 uses; 10 misses the cut.
    const std::vector<std::size_t> expected = {5, 1, 3, 7};
    for (std::size_t rank = 0; rank < expected.size(); ++rank) {
        JobSnapshot warm;
        ASSERT_TRUE(d.status(lastId + 1 + rank, warm)) << rank;
        EXPECT_EQ(warm.state, daemon::JobState::Done);
        char fp[17];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(
                          service::fingerprintCircuit(
                              circuits[expected[rank]])));
        EXPECT_EQ(warm.result.tag, std::string("warm:") + fp)
            << "rank " << rank;
    }
}

TEST(Daemon, InFlightJobsFinishOnOldEpochDuringRollover)
{
    DaemonOptions opts;
    opts.threads = 1;
    opts.shards = 1;
    opts.warmTopK = 0; // isolate the in-flight job's epoch
    CompileDaemon d(topo(), day(0), opts);

    Circuit big("big", 8);
    for (int round = 0; round < 40; ++round)
        for (int q = 0; q + 1 < 8; ++q)
            big.cnot(q, q + 1);

    CompileDaemon::SubmitOutcome out =
        d.submit("t0", Lane::Normal, big, greedyOptions(), "slow");
    ASSERT_TRUE(out.accepted);
    // Flip the epoch while the job is (likely) queued or running;
    // whichever epoch the job captured, it must complete cleanly on
    // exactly one of them — never fail, never block.
    d.reload(day(1), 1, "mid-flight");

    JobSnapshot snap;
    ASSERT_TRUE(d.wait(out.id, snap));
    EXPECT_TRUE(snap.result.ok);
    EXPECT_TRUE(snap.epochId == 1 || snap.epochId == 2)
        << snap.epochId;
    EXPECT_EQ(d.stats().rejected, 0u);
}

} // namespace
