/**
 * @file
 * The untraced mode: naqcd runs as a child process and closed-loop
 * clients drive it over its Unix socket the way `naqc-client submit
 * --wait` does. Every request carries a deadline, so a dying daemon
 * turns into failed requests and an exit signal instead of a hang.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "e2e.hpp"

#include "daemon/net.hpp"
#include "daemon/protocol.hpp"
#include "support/logging.hpp"

extern char **environ;

namespace e2e {

using namespace qc;

namespace {

const char *const kSocket = "naqcd.sock";
const char *const kCacheDir = "naqcd-cache";

/** naqcd spawns timed to their first pong; the median is setup_s. */
constexpr int kSetupSpawns = 21;

/** heuristic_stream keeps one in this many responses for recompiling. */
constexpr double kSampleShare = 1.0 / 8;
constexpr std::size_t kMaxSamples = 400;

/** A naqcd child; killed and reaped on destruction if still running. */
class DaemonProcess
{
  public:
    DaemonProcess(const std::string &naqcd,
                  const std::vector<std::string> &args)
    {
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(naqcd.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        // QC_VERIFY would switch the pipeline's validator on, changing
        // the work being measured; naqcd never sees it.
        std::vector<char *> envp;
        for (char **e = environ; *e != nullptr; ++e)
            if (std::strncmp(*e, "QC_VERIFY=", 10) != 0)
                envp.push_back(*e);
        envp.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, "naqcd.log",
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const int rc = posix_spawn(&pid_, naqcd.c_str(), &actions,
                                   nullptr, argv.data(), envp.data());
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            QC_FATAL("cannot start ", naqcd, ": ", std::strerror(rc));
    }

    ~DaemonProcess()
    {
        if (!reaped_) {
            ::kill(pid_, SIGKILL);
            reap(true);
        }
    }

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    pid_t pid() const { return pid_; }

    bool alive() { return !reap(false); }

    /** "exit 0", "killed by signal 6", or "running". */
    std::string exitDescription() const
    {
        if (!reaped_)
            return "running";
        if (WIFSIGNALED(status_))
            return "killed by signal " +
                   std::to_string(WTERMSIG(status_));
        return "exit " + std::to_string(WEXITSTATUS(status_));
    }

    /**
     * SIGTERM, naqcd's graceful drain (in-flight jobs finish first);
     * SIGKILL after 30 s. Reaps either way; no-op once reaped.
     */
    void stop()
    {
        if (reap(false))
            return;
        ::kill(pid_, SIGTERM);
        const auto t0 = Clock::now();
        while (!reap(false) && secondsSince(t0) < 30.0)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (!reaped_) {
            ::kill(pid_, SIGKILL);
            reap(true);
        }
    }

  private:
    bool reap(bool block)
    {
        if (reaped_)
            return true;
        if (::waitpid(pid_, &status_, block ? 0 : WNOHANG) == pid_)
            reaped_ = true;
        return reaped_;
    }

    pid_t pid_ = -1;
    int status_ = 0;
    bool reaped_ = false;
};

/** One client connection whose reads give up at a deadline. */
class Connection
{
  public:
    explicit Connection(int fd) : fd_(fd) {}
    ~Connection() { ::close(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    bool send(const std::string &data)
    {
        std::size_t done = 0;
        while (done < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + done,
                                     data.size() - done, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            done += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool readLine(std::string &line, Clock::time_point deadline)
    {
        for (;;) {
            const std::size_t nl = buffer_.find('\n', scanned_);
            if (nl != std::string::npos) {
                line.assign(buffer_, head_, nl - head_);
                head_ = scanned_ = nl + 1;
                return true;
            }
            // Drop consumed lines only now, once per read: erasing
            // each line from the front would copy the buffer per line.
            buffer_.erase(0, head_);
            head_ = 0;
            scanned_ = buffer_.size();
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            if (left <= 0)
                return false;
            pollfd pfd{fd_, POLLIN, 0};
            const int ready =
                ::poll(&pfd, 1, static_cast<int>(std::min<long long>(
                                    left, 1000)));
            if (ready == 0 || (ready < 0 && errno == EINTR))
                continue;
            char chunk[65536];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n <= 0)
                return false;
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buffer_;
    std::size_t head_ = 0;    ///< start of the unread part of buffer_
    std::size_t scanned_ = 0; ///< unread bytes before this lack '\n'
};

std::unique_ptr<Connection>
connectDaemon()
{
    std::string err;
    const int fd = daemon::connectUnix(kSocket, err);
    return fd < 0 ? nullptr : std::make_unique<Connection>(fd);
}

/** Send one waited submit and read its result (and QASM payload). */
Response
submit(Connection &conn, const Job &job, Clock::time_point deadline)
{
    Response r;
    std::string request = "submit qasm=inline " + job.protocolArgs +
                          " wait=1\n" + job.qasm;
    if (!job.qasm.empty() && job.qasm.back() != '\n')
        request += '\n';
    request += ".\n";
    if (!conn.send(request) || !conn.readLine(r.line, deadline))
        return r;
    // A response line parses like a request: "ok" is the command word.
    r.fields = daemon::parseRequest(r.line).args;
    if (r.line.rfind("ok ", 0) == 0 && r.fields["ok"] == "1") {
        std::string line;
        for (;;) {
            if (!conn.readLine(line, deadline))
                return r;
            if (line == ".")
                break;
            r.qasm += line;
            r.qasm += '\n';
        }
    }
    r.answered = true;
    return r;
}

/**
 * CPU seconds `pid` has used so far, all threads. The kernel leaves
 * time the hypervisor stole out of it, unlike wall time.
 */
double
cpuSeconds(pid_t pid)
{
    clockid_t clock;
    timespec ts{};
    if (::clock_getcpuclockid(pid, &clock) != 0 ||
        ::clock_gettime(clock, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/**
 * Spawn naqcd and time it until its first answered ping, in wall
 * seconds and in naqcd CPU seconds.
 */
std::unique_ptr<DaemonProcess>
spawnReady(const Workload &w, const std::string &naqcd, double &wall_s,
           double &cpu_s)
{
    std::vector<std::string> args = {
        "--socket", kSocket, "--topology", w.topology, "--threads", "2",
        "--seed", std::to_string(kCalibrationSeed), "--day", "0",
        "--cache-capacity", std::to_string(w.cacheCapacity)};
    if (w.diskCache) {
        std::filesystem::remove_all(kCacheDir);
        args.insert(args.end(), {"--cache-dir", kCacheDir});
    }
    std::filesystem::remove(kSocket);
    const auto t0 = Clock::now();
    auto child = std::make_unique<DaemonProcess>(naqcd, args);
    while (secondsSince(t0) < 60.0 && child->alive()) {
        if (auto conn = connectDaemon()) {
            std::string reply;
            if (conn->send("ping\n") &&
                conn->readLine(reply, t0 + std::chrono::seconds(60)) &&
                reply == "ok pong") {
                wall_s = secondsSince(t0);
                cpu_s = cpuSeconds(child->pid());
                return child;
            }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    QC_FATAL("naqcd never answered a ping (", child->exitDescription(),
             "; see naqcd.log)");
}

/** (busy + idle, steal) jiffies summed over all CPUs. */
std::pair<double, double>
cpuJiffies()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double total = 0.0, steal = 0.0, v = 0.0;
    for (int i = 0; i < 8 && in >> v; ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {total, steal};
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    double kb = 0.0;
    while (in >> key) {
        if (key == "VmHWM:") {
            in >> kb;
            break;
        }
        std::getline(in, key);
    }
    return kb / 1024.0;
}

/** The answer count a window's connections share, for the RSS sample. */
struct RssProbe
{
    pid_t daemon = -1;
    std::uint64_t after = 0; ///< Workload::rssAfterAnswers
    std::atomic<std::uint64_t> answered{0};
    double mb = 0.0; ///< set by the connection whose answer hit `after`
};

/** What one connection saw; merged into the WindowResult. */
struct ConnectionLog
{
    std::vector<double> latencies, psuccessPerGate, durationPerGate;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    std::vector<std::pair<Job, std::string>> table2; ///< job, QASM
    std::vector<SampledResponse> samples;
    Clock::time_point lastAnswer{};
    long reloadAfter = -1;
};

void
driveConnection(const Workload &w, std::uint64_t seed, int index,
                Clock::time_point start, double seconds,
                const Topology &topo, RssProbe &rss,
                ConnectionLog &log)
{
    const auto end = after(start, seconds);
    const auto mid = after(start, seconds / 2);
    RequestStream stream(w, seed, index);
    Rng sampler(seed, w.name + "/sample/" + std::to_string(index));
    auto fail = [&](const std::string &why) {
        ++log.failed;
        if (log.failures.size() < 5)
            log.failures.push_back(why);
    };
    auto conn = connectDaemon();
    if (!conn) {
        ++log.attempted;
        fail("cannot connect to naqcd");
        return;
    }
    auto pass_start = start;
    for (std::size_t sent = 0;; ++sent) {
        if (w.wholePasses) {
            // Start another pass only if one as long as the last still
            // fits in the window; at least one pass always runs.
            if (sent > 0 && stream.atPassStart()) {
                const auto now = Clock::now();
                if (after(now, secondsSince(pass_start)) > end)
                    break;
                pass_start = now;
            }
        } else if (Clock::now() >= end) {
            break;
        }
        if (w.midpointReload && index == 0 && log.reloadAfter < 0 &&
            Clock::now() >= mid) {
            std::string reply;
            if (!conn->send("reload day=1\n") ||
                !conn->readLine(reply, Clock::now() +
                                           std::chrono::seconds(30)) ||
                reply.rfind("ok ", 0) != 0)
                fail("reload failed: " + reply);
            log.reloadAfter = static_cast<long>(sent);
        }
        const Job job = stream.next();
        ++log.attempted;
        const auto t0 = Clock::now();
        Response r =
            submit(*conn, job, after(t0, w.requestDeadlineS));
        const auto t1 = Clock::now();
        if (!r.answered) {
            fail("unanswered " + job.protocolArgs +
                 " request (deadline or daemon exit)");
            break; // the connection is unusable now
        }
        log.lastAnswer = t1;
        if (++rss.answered == rss.after)
            rss.mb = peakRssMb(rss.daemon);
        log.latencies.push_back(
            std::chrono::duration<double>(t1 - t0).count());
        const std::string why = checkResponse(r, topo);
        if (!why.empty()) {
            fail(why);
            continue;
        }
        log.psuccessPerGate.push_back(
            std::pow(std::atof(r.fields["psuccess"].c_str()),
                     1.0 / job.gates));
        log.durationPerGate.push_back(
            std::atof(r.fields["duration"].c_str()) / job.gates);
        if (job.kernel >= 0)
            log.table2.emplace_back(job, std::move(r.qasm));
        else if (log.samples.size() < kMaxSamples &&
                 sampler.bernoulli(kSampleShare))
            log.samples.push_back(
                {job, r.epoch(), qasmBodyHash(r.qasm)});
    }
}

} // namespace

WindowResult
runSocketWindow(const Workload &w, std::uint64_t seed, double seconds,
                const std::string &naqcd)
{
    WindowResult out;
    std::unique_ptr<DaemonProcess> child;
    // The host's state drifts over tens of seconds, so half the spawns
    // come before the window and half after it. The last spawn before
    // the window serves the workload.
    auto sampleSetups = [&](int count) {
        for (int i = 0; i < count; ++i) {
            if (child)
                child->stop();
            double wall = 0.0, cpu = 0.0;
            child = spawnReady(w, naqcd, wall, cpu);
            out.setupWallSeconds.push_back(wall);
            out.setupSeconds.push_back(cpu);
        }
    };
    sampleSetups(kSetupSpawns / 2 + 1);

    const Topology topo = topologyFromSpec(w.topology);
    std::vector<ConnectionLog> logs(
        static_cast<std::size_t>(w.connections));
    RssProbe rss;
    rss.daemon = child->pid();
    rss.after = w.rssAfterAnswers;
    const auto jiffies0 = cpuJiffies();
    const double cpu0 = cpuSeconds(child->pid());
    const auto start = Clock::now();
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < w.connections; ++c)
            clients.emplace_back([&, c] {
                driveConnection(w, seed, c, start, seconds, topo, rss,
                                logs[static_cast<std::size_t>(c)]);
            });
        for (std::thread &t : clients)
            t.join();
    }
    out.daemonCpuSeconds = cpuSeconds(child->pid()) - cpu0;
    const auto jiffies1 = cpuJiffies();
    const double dt = jiffies1.first - jiffies0.first;
    out.stealShare =
        dt > 0 ? (jiffies1.second - jiffies0.second) / dt : 0.0;
    const bool sampled = rss.mb > 0.0;
    out.peakRssMb = sampled ? rss.mb : peakRssMb(child->pid());
    out.rssAnswers = sampled ? rss.after : rss.answered.load();
    const bool died = !child->alive();
    child->stop();
    out.daemonExit = child->exitDescription();
    sampleSetups(kSetupSpawns / 2);
    child->stop();

    auto last = start;
    std::vector<SampledResponse> samples;
    for (ConnectionLog &log : logs) {
        out.latencies.insert(out.latencies.end(), log.latencies.begin(),
                             log.latencies.end());
        out.psuccessPerGate.insert(out.psuccessPerGate.end(),
                                   log.psuccessPerGate.begin(),
                                   log.psuccessPerGate.end());
        out.durationPerGate.insert(out.durationPerGate.end(),
                                   log.durationPerGate.begin(),
                                   log.durationPerGate.end());
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.failures.insert(out.failures.end(), log.failures.begin(),
                            log.failures.end());
        out.sentPerConnection.push_back(log.attempted);
        if (log.reloadAfter >= 0)
            out.reloadAfter = log.reloadAfter;
        last = std::max(last, log.lastAnswer);
        for (const auto &[job, qasm] : log.table2) {
            const std::string why = checkTable2Outcome(job, qasm);
            if (!why.empty()) {
                ++out.failed;
                out.failures.push_back(why);
            }
        }
        samples.insert(samples.end(), log.samples.begin(),
                       log.samples.end());
    }
    out.wallSeconds = std::chrono::duration<double>(last - start).count();
    if (died)
        out.failures.push_back("naqcd died during the window: " +
                               out.daemonExit);
    for (const std::string &why : recompileAndCompare(w, samples)) {
        ++out.failed;
        out.failures.push_back(why);
    }
    return out;
}

} // namespace e2e
