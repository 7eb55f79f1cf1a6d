/**
 * @file
 * naqc-client — reference client for the naqcd compile daemon.
 *
 * Speaks the line protocol over the daemon's Unix socket. One
 * command per invocation:
 *
 *   naqc-client --socket PATH submit (--bench NAME | --qasm FILE)
 *               [--tenant T] [--priority P] [--tag TEXT] [--wait]
 *               [--KEY VALUE ...]
 *   naqc-client --socket PATH status ID
 *   naqc-client --socket PATH wait ID
 *   naqc-client --socket PATH stats
 *   naqc-client --socket PATH reload (--day D | --calibration FILE)
 *   naqc-client --socket PATH drain | shutdown | ping
 *
 * Exit codes: 0 ok, 1 transport/protocol error, 2 bad command-line
 * flag or a value the one-line request cannot carry (empty, or with
 * whitespace or a control character), 3 rejected submit (over-quota
 * or draining daemon).
 *
 * `submit --wait` prints the compiled QASM to stdout and the result
 * line to stderr, mirroring one-shot `naqc --qasm ... --out -`.
 * `--KEY VALUE` (or `--KEY=VALUE`) is a CompilerOptions codec key as
 * naqc spells it (`--sabre-iterations 0`, a bare `--portfolio`); it is
 * forwarded as `key=value` for naqcd to check.
 */

#include <algorithm>
#include <cctype>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.hpp"
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
    std::string day;
    std::string submitArgs; ///< " key=value" per forwarded flag
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
          "           [--tag TEXT] [--wait] and naqc's compiler "
          "options:\n"
          "           [--mapper NAME] [--omega W] [--timeout MS]\n"
          "           [--sabre-iterations N] [--sabre-lookahead W]\n"
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

/**
 * `value` as one request-line token. The request is one line split on
 * whitespace, so an empty value, or one holding whitespace or a
 * control character (a newline would end the line early), is refused.
 */
const std::string &
protocolValue(const std::string &key, const std::string &value)
{
    if (value.empty() ||
        std::any_of(value.begin(), value.end(), [](unsigned char c) {
            return std::isspace(c) || std::iscntrl(c);
        }))
        throw cli::UsageError("bad " + key + " '" + value +
                              "': the protocol takes one token with no "
                              "whitespace or control characters");
    return value;
}

/** ` key=value` for a submit line. */
std::string
submitArg(const std::string &key, const std::string &value)
{
    return " " + key + "=" + protocolValue(key, value);
}

ClientCli
parseArgs(int argc, char **argv)
{
    ClientCli cli;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&] { return cli::flagValue(argc, argv, i); };
        if (arg == "--socket") {
            cli.socketPath = next();
        } else if (arg == "--bench") {
            cli.bench = protocolValue("bench", next());
        } else if (arg == "--qasm") {
            cli.qasmPath = next();
        } else if (arg == "--calibration") {
            cli.calibrationPath = next();
        } else if (arg == "--tenant" || arg == "--priority" ||
                   arg == "--tag") {
            cli.submitArgs += submitArg(arg.substr(2), next());
        } else if (arg == "--day") {
            cli.day = protocolValue("day", next());
        } else if (arg == "--wait") {
            cli.wait = true;
        } else if (arg == "--help" || arg == "-h") {
            cli.help = true;
        } else if (std::string key, value;
                   compilerOptionFlag(argc, argv, i, key, value)) {
            cli.submitArgs += submitArg(key, value);
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
run(const ClientCli &cli)
{
    std::ostringstream req;
    req << cli.command;
    std::string payload;
    bool payload_on_ok = false; ///< the ok reply carries a block
    if (cli.command == "submit") {
        if (!cli.bench.empty()) {
            req << " bench=" << cli.bench;
        } else if (!cli.qasmPath.empty()) {
            payload = cli::readFileOrStdin(cli.qasmPath);
            req << " qasm=inline";
        } else {
            QC_FATAL("submit needs --bench or --qasm");
        }
        req << cli.submitArgs;
        if (cli.wait)
            req << " wait=1";
        payload_on_ok = cli.wait;
    } else if (cli.command == "status" || cli.command == "wait") {
        if (cli.positional.empty())
            QC_FATAL(cli.command, " needs a job ID");
        req << " id=" << protocolValue("id", cli.positional[0]);
    } else if (cli.command == "stats") {
        payload_on_ok = true;
    } else if (cli.command == "reload") {
        if (!cli.calibrationPath.empty()) {
            payload = cli::readFileOrStdin(cli.calibrationPath);
            req << " cal=inline";
        } else if (cli.day.empty()) {
            QC_FATAL("reload needs --day or --calibration");
        }
        if (!cli.day.empty())
            req << " day=" << cli.day;
    } else if (cli.command != "drain" && cli.command != "shutdown" &&
               cli.command != "ping") {
        QC_FATAL("unknown command '", cli.command, "' (try --help)");
    }

    std::string err;
    int fd = daemon::connectUnix(cli.socketPath, err);
    if (fd < 0) {
        std::cerr << "naqc-client: " << err << "\n";
        return kExitError;
    }
    daemon::LineChannel ch(fd);
    if (!ch.writeLine(req.str()) ||
        (!payload.empty() && !sendPayload(ch, payload))) {
        std::cerr << "naqc-client: write failed\n";
        return kExitError;
    }
    std::string reply;
    if (!ch.readLine(reply)) {
        std::cerr << "naqc-client: connection closed\n";
        return kExitError;
    }
    std::cerr << reply << "\n";
    if (reply.rfind("ok", 0) != 0)
        return reply.find("reason=rejected:") != std::string::npos
                   ? kExitRejected
                   : kExitError;
    // A waited submit whose job failed carries no QASM payload; the
    // "ok=0" result line on stderr is the whole story then.
    if (payload_on_ok && reply.find(" ok=0") == std::string::npos &&
        !drainPayload(ch, std::cout)) {
        std::cerr << "naqc-client: truncated payload\n";
        return kExitError;
    }
    return 0;
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
