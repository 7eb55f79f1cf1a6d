/**
 * @file
 * naqcd — the always-on noise-adaptive compile daemon.
 *
 * Wraps daemon::CompileDaemon in a line-delimited protocol over a
 * Unix domain socket. One thread per connection; the main thread
 * polls the listening socket so SIGINT/SIGTERM can trigger a
 * graceful drain (stop admitting, finish in-flight jobs, exit).
 *
 * Protocol (one request line, one `ok`/`err` response line, optional
 * payload block terminated by a lone "."; a request line over 1 MiB
 * or a payload block over 64 MiB is discarded and answered
 * `err reason=too-large`, and a malformed integer such as `day=3x`
 * `err reason=bad-<key>`):
 *
 *   submit bench=NAME|qasm=inline [tenant=T] [priority=high|normal|low]
 *          [tag=TEXT] [wait=1] [KEY=VALUE ...]
 *          -- with qasm=inline, the QASM text follows as a payload
 *             block; the response to wait=1 carries the compiled QASM
 *             back the same way. Each other KEY is a CompilerOptions
 *             codec key (mapper, omega, timeout, sabre_iterations,
 *             sabre_lookahead, portfolio=all|K1,K2,...,
 *             portfolio_deadline_ms); a timeout or sabre_iterations
 *             above its default is refused.
 *   status id=N          non-blocking job state
 *   wait id=N            block until the job is done, return result
 *   stats                counters (one key=value line + tenant block)
 *   reload day=D|cal=inline [source=TEXT]   zero-downtime rollover
 *   drain                stop admitting, wait until idle
 *   shutdown             drain, then exit
 *   ping                 liveness check
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/compiler.hpp"
#include "daemon/daemon.hpp"
#include "daemon/net.hpp"
#include "daemon/protocol.hpp"
#include "ir/qasm.hpp"
#include "machine/calibration_io.hpp"
#include "machine/calibration_model.hpp"
#include "support/cli.hpp"
#include "support/logging.hpp"
#include "workloads/benchmarks.hpp"

using namespace qc;

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onStopSignal(int)
{
    g_stop = 1;
}

struct DaemonCli
{
    std::string socketPath = "naqcd.sock";
    std::string topology;           ///< spec; empty = 2x8 grid
    std::string calibrationPath;    ///< initial cal file; empty = model
    std::uint64_t seed = 20190131;  ///< synthetic calibration stream
    int day = 0;                    ///< initial calibration day
    daemon::DaemonOptions opts;
    bool help = false;
};

void
printUsage(std::ostream &os)
{
    os << "usage: naqcd --socket PATH [options]\n"
          "  --socket PATH        Unix socket to listen on "
          "(default: naqcd.sock)\n"
          "  --topology SPEC      machine coupling graph "
          "(default: grid:2x8)\n"
          "  --calibration FILE   initial calibration file "
          "(default: synthetic model)\n"
          "  --seed N             synthetic calibration seed "
          "(default: 20190131)\n"
          "  --day N              initial calibration day "
          "(default: 0)\n"
          "  --threads N          compile workers (default: "
          "hardware)\n"
          "  --shards N           submission queue shards "
          "(default: min(4, workers))\n"
          "  --cache-dir DIR      persistent compile cache directory "
          "(default: off)\n"
          "  --cache-capacity N   in-memory cache entries "
          "(default: 4096)\n"
          "  --cache-bytes N      in-memory cache byte cap, in "
          "encoded frame bytes (default: unbounded)\n"
          "  --tenant-quota N     max in-flight jobs per tenant "
          "(default: 64; 0 = off)\n"
          "  --warm-top N         hot fingerprints recompiled on "
          "reload (default: 32)\n"
          "  --help               this text\n";
}

DaemonCli
parseArgs(int argc, char **argv)
{
    DaemonCli cli;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&] { return cli::flagValue(argc, argv, i); };
        if (arg == "--socket") {
            cli.socketPath = next();
        } else if (arg == "--topology") {
            cli.topology = next();
        } else if (arg == "--calibration") {
            cli.calibrationPath = next();
        } else if (arg == "--seed") {
            cli.seed = cli::parseUint64Flag("--seed", next());
        } else if (arg == "--day") {
            cli.day = cli::parseIntFlag("--day", next());
        } else if (arg == "--threads") {
            cli.opts.threads = cli::parseIntFlag("--threads", next());
        } else if (arg == "--shards") {
            cli.opts.shards = cli::parseIntFlag("--shards", next());
        } else if (arg == "--cache-dir") {
            cli.opts.cacheDir = next();
        } else if (arg == "--cache-capacity") {
            cli.opts.cacheCapacity =
                cli::parseUint64Flag("--cache-capacity", next());
        } else if (arg == "--cache-bytes") {
            cli.opts.cacheByteCapacity =
                cli::parseUint64Flag("--cache-bytes", next());
        } else if (arg == "--tenant-quota") {
            cli.opts.tenantQuota =
                cli::parseUint64Flag("--tenant-quota", next());
        } else if (arg == "--warm-top") {
            cli.opts.warmTopK = cli::parseIntFlag("--warm-top", next());
            if (cli.opts.warmTopK < 0)
                throw cli::UsageError("--warm-top must be >= 0");
        } else if (arg == "--help" || arg == "-h") {
            cli.help = true;
        } else {
            throw cli::UsageError("unknown flag '" + arg +
                                  "' (try --help)");
        }
    }
    return cli;
}

/** Largest inline payload block a request may carry: 64 MiB. */
constexpr std::size_t kMaxPayloadBytes = std::size_t{64} << 20;

/**
 * Read an inline payload block, the lines up to a lone ".". Past
 * kMaxPayloadBytes, or at a line over the line cap, the rest of the
 * block is read and discarded: memory stays bounded and the
 * connection in step. False, with the err reply written, when the
 * block was too large or the connection ended inside it.
 */
bool
readPayload(daemon::LineChannel &ch, std::string &payload)
{
    payload.clear();
    bool too_large = false;
    std::string line;
    while (ch.readLine(line)) {
        if (line == ".") { // a line over the cap comes back empty
            if (too_large)
                ch.writeLine("err reason=too-large");
            return !too_large;
        }
        if (too_large)
            continue;
        if (ch.lineTooLarge() ||
            payload.size() + line.size() >= kMaxPayloadBytes) {
            too_large = true;
            std::string().swap(payload);
            continue;
        }
        payload += line;
        payload += '\n';
    }
    ch.writeLine("err reason=truncated-payload");
    return false;
}

/** Escape for a single protocol token: no spaces or newlines. */
std::string
tokenSafe(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text)
        out.push_back(
            c == ' ' || c == '\n' || c == '\t' ? '_' : c);
    return out;
}

/**
 * Read integer argument `key`, if present, into `out`. False, with the
 * err reply written, when it is not one whole base-10 integer ("3x",
 * "yes") or does not survive the round trip through T
 * (`day=99999999999` for an int).
 */
template <typename T>
bool
intArg(daemon::LineChannel &ch, const daemon::Request &req,
       const std::string &key, T &out)
{
    if (!req.has(key))
        return true;
    long long v = 0;
    if (cli::strictParseLongLong(req.get(key), v) &&
        static_cast<long long>(static_cast<T>(v)) == v) {
        out = static_cast<T>(v);
        return true;
    }
    ch.writeLine("err reason=bad-" + key);
    return false;
}

/** The submit keys naqcd reads itself; the rest go to the codec. */
constexpr std::string_view kSubmitFields[] = {
    "bench", "qasm", "tenant", "priority", "tag", "wait"};

std::string
describeResult(const daemon::JobSnapshot &snap)
{
    const service::CompileResult &r = snap.result;
    const daemon::JobSummary &s = snap.summary;
    std::ostringstream oss;
    oss << "id=" << snap.id << " state="
        << daemon::jobStateName(snap.state)
        << " tenant=" << tokenSafe(snap.tenant)
        << " lane=" << daemon::laneName(snap.lane)
        << " epoch=" << snap.epochId
        << " cache=" << daemon::cacheSourceName(snap.cacheSource);
    if (snap.state != daemon::JobState::Done)
        return oss.str();
    oss << " ok=" << (r.ok ? 1 : 0)
        << " status=" << compileStatusCodeName(r.status.code);
    if (r.ok && s.hasProgram) {
        oss << " swaps=" << s.swapCount << " duration=" << s.duration
            << " psuccess=" << s.predictedSuccess;
    }
    if (s.raced > 0) {
        oss << " winner=" << (r.winner.empty()
                                  ? "-"
                                  : tokenSafe(r.winner))
            << " raced=" << s.raced << " cancelled=" << s.cancelled;
    }
    if (!r.status.ok())
        oss << " error=" << tokenSafe(r.error());
    return oss.str();
}

std::string
statsPayload(const daemon::DaemonStats &s)
{
    std::ostringstream oss;
    for (const daemon::TenantStats &t : s.tenants)
        oss << "tenant " << tokenSafe(t.tenant)
            << " inflight=" << t.inFlight
            << " submitted=" << t.submitted
            << " rejected=" << t.rejected
            << " completed=" << t.completed << "\n";
    return oss.str();
}

std::string
statsLine(const daemon::DaemonStats &s)
{
    std::ostringstream oss;
    oss << "ok submitted=" << s.submitted
        << " completed=" << s.completed
        << " rejected=" << s.rejected
        << " queued=" << s.queue.depth
        << " steals=" << s.queue.steals
        << " epoch=" << s.epochId << " epoch_day=" << s.epochDay
        << " mem_hits=" << s.memCache.hits
        << " mem_lookups=" << s.memCache.lookups()
        << " mem_entries=" << s.memCache.entries
        << " mem_bytes=" << s.memCache.bytes
        << " disk_hits=" << s.diskHits
        << " disk_loads=" << s.disk.loads
        << " disk_stores=" << s.disk.stores
        << " disk_corrupt=" << s.disk.corruptRejected
        << " disk_verified=" << s.verifiedOnLoad
        << " disk_healed=" << s.healed
        << " disk_entries=" << s.diskEntries
        << " warm_recompiles=" << s.warmRecompiles
        << " records=" << s.records
        << " programs_held=" << s.programsHeld
        << " hot_entries=" << s.hotEntries
        << " tenants=" << s.tenants.size()
        << " disk_bytes=" << s.disk.bytesWritten;
    return oss.str();
}

/** Shared connection-serving state. */
struct Server
{
    daemon::CompileDaemon *daemon = nullptr;
    Topology topo = GridTopology::ibmq16();
    std::uint64_t seed = 0;

    std::mutex connMu;
    std::set<int> connFds; ///< open connection fds (for shutdown)
    std::atomic<bool> exitRequested{false};
};

void
handleSubmit(Server &srv, daemon::LineChannel &ch,
             const daemon::Request &req)
{
    Circuit circuit;
    try {
        if (req.has("bench")) {
            circuit = benchmarkByName(req.get("bench")).circuit;
        } else if (req.get("qasm") == "inline") {
            std::string text;
            if (!readPayload(ch, text))
                return;
            circuit = parseQasm(text, req.get("tag", "inline"));
        } else {
            ch.writeLine(
                "err reason=submit-needs-bench-or-inline-qasm");
            return;
        }
    } catch (const std::exception &e) {
        ch.writeLine("err reason=" + tokenSafe(e.what()));
        return;
    }

    daemon::Lane lane;
    if (!daemon::laneFromName(req.get("priority", "normal"), lane)) {
        ch.writeLine("err reason=bad-priority");
        return;
    }

    CompilerOptions copts;
    try {
        for (const auto &[key, value] : req.args)
            if (std::find(std::begin(kSubmitFields),
                          std::end(kSubmitFields),
                          key) == std::end(kSubmitFields))
                setCompilerOption(copts, key, value);
        // A shared server: a request may lower a job's budget, never
        // raise it.
        const CompilerOptions limits;
        if (copts.smtTimeoutMs > limits.smtTimeoutMs)
            QC_FATAL("timeout '", req.get("timeout"),
                     "' above naqcd's limit ", limits.smtTimeoutMs);
        if (copts.sabreIterations > limits.sabreIterations)
            QC_FATAL("sabre_iterations '", req.get("sabre_iterations"),
                     "' above naqcd's limit ", limits.sabreIterations);
    } catch (const std::exception &e) {
        ch.writeLine("err reason=" + tokenSafe(e.what()));
        return;
    }

    int wait = 0;
    if (!intArg(ch, req, "wait", wait))
        return;
    // No reply carries an unwaited job's program, so the daemon drops
    // it when the job finishes.
    const std::string tenant = req.get("tenant", "default");
    const int num_clbits = circuit.numClbits();
    daemon::CompileDaemon::SubmitOutcome out = srv.daemon->submit(
        tenant, lane, std::move(circuit), copts, req.get("tag", "job"),
        wait != 0);
    if (!out.accepted) {
        ch.writeLine("err reason=" + tokenSafe(out.reason));
        return;
    }
    if (!wait) {
        ch.writeLine("ok id=" + std::to_string(out.id));
        return;
    }

    daemon::JobSnapshot snap;
    if (!srv.daemon->wait(out.id, snap)) {
        ch.writeLine("err reason=job-record-expired");
        return;
    }
    ch.writeLine("ok " + describeResult(snap));
    if (snap.result.ok && snap.result.program) {
        ch.writeText(emitQasm(
            snap.result.program->hwCircuit(num_clbits)));
        ch.writeLine(".");
    }
}

void
handleReload(Server &srv, daemon::LineChannel &ch,
             const daemon::Request &req)
{
    const bool inline_cal = req.get("cal") == "inline";
    std::string text;
    if (inline_cal && !readPayload(ch, text))
        return;
    int day = 0;
    if (!intArg(ch, req, "day", day))
        return;
    if (!inline_cal && !req.has("day")) {
        ch.writeLine("err reason=reload-needs-day-or-inline-cal");
        return;
    }
    Calibration cal;
    std::string source;
    try {
        if (inline_cal) {
            cal = loadCalibration(text, srv.topo, "reload");
            source = req.get("source", "reload-inline");
        } else {
            CalibrationModel model(srv.topo, srv.seed);
            cal = model.forDay(day);
            source = req.get(
                "source", "model-day-" + std::to_string(day));
        }
    } catch (const std::exception &e) {
        ch.writeLine("err reason=" + tokenSafe(e.what()));
        return;
    }

    daemon::CompileDaemon::ReloadOutcome out =
        srv.daemon->reload(std::move(cal), day, std::move(source));
    ch.writeLine("ok epoch=" + std::to_string(out.epochId) +
                 " warmed=" + std::to_string(out.warmed));
}

void
serveConnection(Server &srv, int fd)
{
    daemon::LineChannel ch(fd);
    std::string line;
    while (ch.readLine(line)) {
        if (ch.lineTooLarge()) {
            ch.writeLine("err reason=too-large");
            continue;
        }
        daemon::Request req = daemon::parseRequest(line);
        if (req.command.empty())
            continue;

        if (req.command == "ping") {
            ch.writeLine("ok pong");
        } else if (req.command == "submit") {
            handleSubmit(srv, ch, req);
        } else if (req.command == "status" ||
                   req.command == "wait") {
            std::uint64_t id = 0;
            if (!intArg(ch, req, "id", id))
                continue;
            daemon::JobSnapshot snap;
            const bool known = req.command == "wait"
                                   ? srv.daemon->wait(id, snap)
                                   : srv.daemon->status(id, snap);
            if (!known)
                ch.writeLine("err reason=unknown-id");
            else
                ch.writeLine("ok " + describeResult(snap));
        } else if (req.command == "stats") {
            daemon::DaemonStats s = srv.daemon->stats();
            ch.writeLine(statsLine(s));
            ch.writeText(statsPayload(s));
            ch.writeLine(".");
        } else if (req.command == "reload") {
            handleReload(srv, ch, req);
        } else if (req.command == "drain") {
            srv.daemon->beginShutdown();
            srv.daemon->awaitIdle();
            ch.writeLine("ok drained");
        } else if (req.command == "shutdown") {
            srv.daemon->beginShutdown();
            srv.daemon->awaitIdle();
            srv.exitRequested.store(true);
            ch.writeLine("ok bye");
            break;
        } else {
            ch.writeLine("err reason=unknown-command-" +
                         tokenSafe(req.command));
        }
    }
    std::lock_guard<std::mutex> lock(srv.connMu);
    srv.connFds.erase(fd);
    // ch's destructor closes fd.
}

int
runServer(const DaemonCli &cli)
{
    Topology topo = cli.topology.empty()
                        ? Topology(GridTopology::ibmq16())
                        : topologyFromSpec(cli.topology);

    Calibration cal;
    std::string source;
    if (!cli.calibrationPath.empty()) {
        std::ifstream in(cli.calibrationPath);
        if (!in)
            QC_FATAL("cannot read '", cli.calibrationPath, "'");
        std::ostringstream text;
        text << in.rdbuf();
        cal = loadCalibration(text.str(), topo, cli.calibrationPath);
        source = cli.calibrationPath;
    } else {
        CalibrationModel model(topo, cli.seed);
        cal = model.forDay(cli.day);
        source = "model-day-" + std::to_string(cli.day);
    }

    daemon::CompileDaemon engine(topo, std::move(cal), cli.opts,
                                 cli.day, source);

    std::string err;
    int listen_fd = daemon::listenUnix(cli.socketPath, err);
    if (listen_fd < 0) {
        std::cerr << "naqcd: " << err << "\n";
        return 1;
    }

    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGPIPE, SIG_IGN);

    Server srv;
    srv.daemon = &engine;
    srv.topo = topo;
    srv.seed = cli.seed;

    std::cerr << "naqcd: listening on " << cli.socketPath << " ("
              << engine.numThreads() << " workers)\n";

    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };
    std::list<Connection> connections;
    while (!g_stop && !srv.exitRequested.load()) {
        // Join the threads of connections that ended: an unjoined
        // thread keeps its stack mapped.
        connections.remove_if([](Connection &c) {
            if (!c.done.load())
                return false;
            c.thread.join();
            return true;
        });
        pollfd pfd{};
        pfd.fd = listen_fd;
        pfd.events = POLLIN;
        int ready = ::poll(&pfd, 1, 200 /* ms */);
        if (ready <= 0)
            continue; // timeout, EINTR, or spurious wake
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            continue;
        {
            std::lock_guard<std::mutex> lock(srv.connMu);
            srv.connFds.insert(fd);
        }
        Connection &conn = connections.emplace_back();
        conn.thread = std::thread([&srv, &conn, fd] {
            serveConnection(srv, fd);
            conn.done.store(true);
        });
    }

    // Graceful drain: stop admitting, let in-flight jobs finish,
    // kick blocked connection reads loose, then join everything.
    std::cerr << "naqcd: draining\n";
    engine.beginShutdown();
    engine.awaitIdle();
    ::close(listen_fd);
    {
        std::lock_guard<std::mutex> lock(srv.connMu);
        for (int fd : srv.connFds)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (Connection &c : connections)
        c.thread.join();
    ::unlink(cli.socketPath.c_str());
    std::cerr << "naqcd: bye\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        DaemonCli cli = parseArgs(argc, argv);
        if (cli.help) {
            printUsage(std::cout);
            return 0;
        }
        return runServer(cli);
    } catch (const qc::cli::UsageError &e) {
        std::cerr << "naqcd: " << e.what() << "\n";
        return e.exitCode();
    } catch (const qc::FatalError &e) {
        std::cerr << "naqcd: " << e.what() << "\n";
        return 1;
    }
}
