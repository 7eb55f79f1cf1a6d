/**
 * @file
 * Line-delimited text protocol helpers for the compile daemon.
 *
 * Every daemon request is one line: a command word followed by
 * whitespace-separated `key=value` arguments. Values never contain
 * whitespace (payloads such as QASM text travel as a block of lines
 * terminated by a lone "." — see tools/naqcd.cpp). Responses are one
 * `ok ...` / `err ...` line, optionally followed by a payload block.
 *
 * These helpers only tokenize and pattern-match; they know nothing
 * about sockets, so they are unit-testable without I/O.
 */

#ifndef QC_DAEMON_PROTOCOL_HPP
#define QC_DAEMON_PROTOCOL_HPP

#include <map>
#include <string>
#include <vector>

namespace qc::daemon {

/** Split on runs of spaces/tabs; no empty tokens. */
std::vector<std::string> splitTokens(const std::string &line);

/** A parsed request line: command word plus key=value arguments. */
struct Request
{
    std::string command;                     ///< first token, lowercased
    std::map<std::string, std::string> args; ///< key=value tokens

    /** Value for `key`, or `fallback` when absent. */
    std::string get(const std::string &key,
                    const std::string &fallback = "") const;

    bool has(const std::string &key) const
    {
        return args.count(key) != 0;
    }
};

/**
 * Parse one request line. Tokens without '=' after the command are
 * treated as bare flags (value "1"). An empty line yields an empty
 * command.
 */
Request parseRequest(const std::string &line);

} // namespace qc::daemon

#endif // QC_DAEMON_PROTOCOL_HPP
