/**
 * @file
 * Command-line argument helpers shared by the tool binaries.
 *
 * Every numeric flag used to go through bare std::stoi/std::stod,
 * which throw std::invalid_argument / std::out_of_range straight out
 * of main() on input like `--jobs foo` — an uncaught-exception abort
 * instead of a diagnostic. These helpers are the hardened seam: a
 * strict full-token parse (no trailing garbage, range-checked) that
 * reports failures as a UsageError carrying the conventional exit
 * code 2, so `naqc --jobs foo` prints one line and exits 2. Living in
 * support/ makes the seam unit-testable without spawning the binary.
 */

#ifndef QC_SUPPORT_CLI_HPP
#define QC_SUPPORT_CLI_HPP

#include <cstdint>
#include <string>

#include "support/logging.hpp"

namespace qc::cli {

/**
 * Invalid command-line usage. Derives from FatalError so generic
 * handlers still catch it; carries the exit code (2, the usage-error
 * convention) for handlers that distinguish bad flags from runtime
 * failures.
 */
class UsageError : public FatalError
{
  public:
    explicit UsageError(const std::string &msg, int exit_code = 2)
        : FatalError(msg), exitCode_(exit_code)
    {
    }

    int exitCode() const { return exitCode_; }

  private:
    int exitCode_;
};

/**
 * @name Strict full-token conversions
 *
 * The low-level recipe shared by every hardened parse site (CLI
 * flags here, calibration fields in machine/calibration_io.cpp):
 * the whole token must convert and stay in range. No diagnostics —
 * callers attach their own (flag name, file/line/column).
 * @{
 */

/** Base-10 integer; false on garbage, trailing junk, or overflow. */
bool strictParseLongLong(const std::string &text, long long &out);

/** Finite double; false on garbage, trailing junk, inf/nan, ERANGE. */
bool strictParseDouble(const std::string &text, double &out);

/** @} */

/**
 * @name Checked flag-value parsers
 *
 * Each parses the *entire* token (leading/trailing junk rejected,
 * "12x" is not 12) and range-checks against the destination type,
 * throwing UsageError("invalid value for --flag: 'text'") otherwise.
 * @{
 */

/** Signed int flag value. */
int parseIntFlag(const std::string &flag, const std::string &text);

/** Unsigned 64-bit flag value (e.g. seeds). */
std::uint64_t parseUint64Flag(const std::string &flag,
                              const std::string &text);

/** @} */

/**
 * The value after flag argv[i], advancing i to it; UsageError
 * "missing value for <flag>" when argv[i] is the last argument.
 */
std::string flagValue(int argc, char **argv, int &i);

/**
 * The whole file a flag names, or stdin for "-"; FatalError "cannot
 * read '<path>'" when it does not open.
 */
std::string readFileOrStdin(const std::string &path);

} // namespace qc::cli

#endif // QC_SUPPORT_CLI_HPP
