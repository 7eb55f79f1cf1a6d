/**
 * @file
 * naqc-client — reference client for the naqcd compile daemon.
 *
 * Speaks the line protocol over the daemon's Unix socket. One
 * command per invocation:
 *
 *   naqc-client --socket PATH submit (--bench NAME | --qasm FILE)
 *               [--tenant T] [--priority P] [--mapper M] [--tag TEXT]
 *               [--portfolio[=K1,K2,...]] [--portfolio-deadline-ms MS]
 *               [--wait]
 *   naqc-client --socket PATH status ID
 *   naqc-client --socket PATH wait ID
 *   naqc-client --socket PATH stats
 *   naqc-client --socket PATH reload (--day D | --calibration FILE)
 *   naqc-client --socket PATH drain | shutdown | ping
 *
 * Exit codes: 0 ok, 1 transport/protocol error, 2 bad command-line
 * flag, 3 rejected submit (over-quota or draining daemon).
 *
 * `submit --wait` prints the compiled QASM to stdout and the result
 * line to stderr, mirroring one-shot `naqc --qasm ... --out -`.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "daemon/net.hpp"
#include "support/cli.hpp"
#include "support/logging.hpp"

using namespace qc;

namespace {

constexpr int kExitError = 1;
constexpr int kExitRejected = 3;

struct ClientCli
{
    std::string socketPath = "naqcd.sock";
    std::string command;
    std::vector<std::string> positional;
    std::string bench;
    std::string qasmPath;
    std::string calibrationPath;
    std::string tenant;
    std::string priority;
    std::string mapper;
    std::string tag;
    std::string day;
    bool portfolio = false;
    std::string portfolioBundles;  ///< comma list; empty = all
    std::string portfolioDeadline; ///< ms; daemon validates
    bool wait = false;
    bool help = false;
};

void
printUsage(std::ostream &os)
{
    os << "usage: naqc-client [--socket PATH] COMMAND [options]\n"
          "commands:\n"
          "  submit   --bench NAME | --qasm FILE ('-' = stdin)\n"
          "           [--tenant T] [--priority high|normal|low]\n"
          "           [--mapper NAME] [--tag TEXT] [--wait]\n"
          "           [--portfolio[=K1,K2,...]] "
          "[--portfolio-deadline-ms MS]\n"
          "  status ID    non-blocking job state\n"
          "  wait ID      block until the job finishes\n"
          "  stats        daemon counters\n"
          "  reload   --day D | --calibration FILE\n"
          "  drain        stop admissions, wait for idle\n"
          "  shutdown     drain, then stop the daemon\n"
          "  ping         liveness check\n"
          "exit codes: 0 ok, 1 error, 2 bad flag, 3 rejected submit\n";
}

ClientCli
parseArgs(int argc, char **argv)
{
    ClientCli cli;
    auto need = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            throw cli::UsageError(std::string("missing value for ") +
                                  flag);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--socket") {
            cli.socketPath = need(i, "--socket");
        } else if (arg == "--bench") {
            cli.bench = need(i, "--bench");
        } else if (arg == "--qasm") {
            cli.qasmPath = need(i, "--qasm");
        } else if (arg == "--calibration") {
            cli.calibrationPath = need(i, "--calibration");
        } else if (arg == "--tenant") {
            cli.tenant = need(i, "--tenant");
        } else if (arg == "--priority") {
            cli.priority = need(i, "--priority");
        } else if (arg == "--mapper") {
            cli.mapper = need(i, "--mapper");
        } else if (arg == "--tag") {
            cli.tag = need(i, "--tag");
        } else if (arg == "--portfolio") {
            cli.portfolio = true;
        } else if (arg.rfind("--portfolio=", 0) == 0) {
            cli.portfolio = true;
            cli.portfolioBundles =
                arg.substr(std::string("--portfolio=").size());
        } else if (arg == "--portfolio-deadline-ms") {
            cli.portfolioDeadline =
                need(i, "--portfolio-deadline-ms");
        } else if (arg == "--day") {
            cli.day = need(i, "--day");
        } else if (arg == "--wait") {
            cli.wait = true;
        } else if (arg == "--help" || arg == "-h") {
            cli.help = true;
        } else if (!arg.empty() && arg[0] == '-') {
            throw cli::UsageError("unknown flag '" + arg +
                                  "' (try --help)");
        } else if (cli.command.empty()) {
            cli.command = arg;
        } else {
            cli.positional.push_back(arg);
        }
    }
    return cli;
}

std::string
readFileOrStdin(const std::string &path)
{
    std::ostringstream text;
    if (path == "-") {
        text << std::cin.rdbuf();
    } else {
        std::ifstream in(path);
        if (!in)
            QC_FATAL("cannot read '", path, "'");
        text << in.rdbuf();
    }
    return text.str();
}

/** Send payload lines followed by the "." terminator. */
bool
sendPayload(daemon::LineChannel &ch, const std::string &text)
{
    if (!ch.writeText(text))
        return false;
    if (!text.empty() && text.back() != '\n' &&
        !ch.writeText("\n"))
        return false;
    return ch.writeLine(".");
}

/** Read a payload block onto `os`; false on EOF mid-payload. */
bool
drainPayload(daemon::LineChannel &ch, std::ostream &os)
{
    std::string line;
    while (ch.readLine(line)) {
        if (line == ".")
            return true;
        os << line << "\n";
    }
    return false;
}

int
finish(daemon::LineChannel &ch, bool expect_payload_on_ok,
       std::ostream &payload_out)
{
    std::string reply;
    if (!ch.readLine(reply)) {
        std::cerr << "naqc-client: connection closed\n";
        return kExitError;
    }
    const bool ok = reply.rfind("ok", 0) == 0;
    std::cerr << reply << "\n";
    if (!ok) {
        return reply.find("reason=rejected:") != std::string::npos
                   ? kExitRejected
                   : kExitError;
    }
    if (expect_payload_on_ok && !drainPayload(ch, payload_out)) {
        std::cerr << "naqc-client: truncated payload\n";
        return kExitError;
    }
    return 0;
}

int
run(const ClientCli &cli)
{
    std::string err;
    int fd = daemon::connectUnix(cli.socketPath, err);
    if (fd < 0) {
        std::cerr << "naqc-client: " << err << "\n";
        return kExitError;
    }
    daemon::LineChannel ch(fd);

    if (cli.command == "submit") {
        std::ostringstream req;
        req << "submit";
        std::string payload;
        if (!cli.bench.empty()) {
            req << " bench=" << cli.bench;
        } else if (!cli.qasmPath.empty()) {
            payload = readFileOrStdin(cli.qasmPath);
            req << " qasm=inline";
        } else {
            QC_FATAL("submit needs --bench or --qasm");
        }
        if (!cli.tenant.empty())
            req << " tenant=" << cli.tenant;
        if (!cli.priority.empty())
            req << " priority=" << cli.priority;
        if (!cli.mapper.empty())
            req << " mapper=" << cli.mapper;
        if (!cli.tag.empty())
            req << " tag=" << cli.tag;
        if (cli.portfolio)
            req << " portfolio="
                << (cli.portfolioBundles.empty()
                        ? "all"
                        : cli.portfolioBundles);
        if (!cli.portfolioDeadline.empty())
            req << " portfolio_deadline_ms="
                << cli.portfolioDeadline;
        if (cli.wait)
            req << " wait=1";
        if (!ch.writeLine(req.str()) ||
            (!payload.empty() && !sendPayload(ch, payload))) {
            std::cerr << "naqc-client: write failed\n";
            return kExitError;
        }
        // A waited submit whose job failed carries no QASM payload;
        // the "ok=0" result line on stderr is the whole story then.
        std::string reply;
        if (!ch.readLine(reply)) {
            std::cerr << "naqc-client: connection closed\n";
            return kExitError;
        }
        std::cerr << reply << "\n";
        if (reply.rfind("ok", 0) != 0)
            return reply.find("reason=rejected:") !=
                           std::string::npos
                       ? kExitRejected
                       : kExitError;
        if (cli.wait && reply.find(" ok=1") != std::string::npos &&
            !drainPayload(ch, std::cout)) {
            std::cerr << "naqc-client: truncated payload\n";
            return kExitError;
        }
        return 0;
    }

    if (cli.command == "status" || cli.command == "wait") {
        if (cli.positional.empty())
            QC_FATAL(cli.command, " needs a job ID");
        if (!ch.writeLine(cli.command +
                          " id=" + cli.positional[0])) {
            std::cerr << "naqc-client: write failed\n";
            return kExitError;
        }
        return finish(ch, false, std::cout);
    }

    if (cli.command == "stats") {
        if (!ch.writeLine("stats")) {
            std::cerr << "naqc-client: write failed\n";
            return kExitError;
        }
        return finish(ch, true, std::cout);
    }

    if (cli.command == "reload") {
        std::ostringstream req;
        req << "reload";
        std::string payload;
        if (!cli.calibrationPath.empty()) {
            payload = readFileOrStdin(cli.calibrationPath);
            req << " cal=inline";
            if (!cli.day.empty())
                req << " day=" << cli.day;
        } else if (!cli.day.empty()) {
            req << " day=" << cli.day;
        } else {
            QC_FATAL("reload needs --day or --calibration");
        }
        if (!ch.writeLine(req.str()) ||
            (!payload.empty() && !sendPayload(ch, payload))) {
            std::cerr << "naqc-client: write failed\n";
            return kExitError;
        }
        return finish(ch, false, std::cout);
    }

    if (cli.command == "drain" || cli.command == "shutdown" ||
        cli.command == "ping") {
        if (!ch.writeLine(cli.command)) {
            std::cerr << "naqc-client: write failed\n";
            return kExitError;
        }
        return finish(ch, false, std::cout);
    }

    QC_FATAL("unknown command '", cli.command, "' (try --help)");
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        ClientCli cli = parseArgs(argc, argv);
        if (cli.help || cli.command.empty()) {
            printUsage(cli.help ? std::cout : std::cerr);
            return cli.help ? 0 : kExitError;
        }
        return run(cli);
    } catch (const qc::cli::UsageError &e) {
        std::cerr << "naqc-client: " << e.what() << "\n";
        return e.exitCode();
    } catch (const qc::FatalError &e) {
        std::cerr << "naqc-client: " << e.what() << "\n";
        return kExitError;
    }
}
