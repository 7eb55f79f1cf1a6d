#include "cli.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

namespace qc::cli {

namespace {

[[noreturn]] void
rejectValue(const std::string &flag, const std::string &text)
{
    throw UsageError("invalid value for " + flag + ": '" + text + "'");
}

/**
 * Full-token conversion guard shared by the strict parsers: strtoll/
 * strtoull/strtod must consume every character without ERANGE (the
 * std::out_of_range case bare std::stoi turned into an abort), and
 * leading whitespace — which the strto* family skips — is rejected.
 */
template <typename T, typename F>
bool
convertFullToken(F convert, const std::string &text, T &out)
{
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text.front())))
        return false;
    errno = 0;
    char *end = nullptr;
    out = convert(text.c_str(), &end);
    return errno != ERANGE && end != text.c_str() && *end == '\0';
}

} // namespace

bool
strictParseLongLong(const std::string &text, long long &out)
{
    return convertFullToken<long long>(
        [](const char *s, char **e) { return std::strtoll(s, e, 10); },
        text, out);
}

bool
strictParseDouble(const std::string &text, double &out)
{
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text.front())))
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        return false;
    // No errno check here: strtod sets ERANGE for *underflow* too,
    // where it returns a perfectly representable denormal/zero (a
    // value saveCalibration may legitimately have written). Overflow
    // returns +-HUGE_VAL and is caught by the finite check.
    return std::isfinite(out);
}

int
parseIntFlag(const std::string &flag, const std::string &text)
{
    long long v = 0;
    if (!strictParseLongLong(text, v) ||
        v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
        rejectValue(flag, text);
    return static_cast<int>(v);
}

std::uint64_t
parseUint64Flag(const std::string &flag, const std::string &text)
{
    if (text.find('-') != std::string::npos)
        rejectValue(flag, text); // strtoull silently negates
    unsigned long long v = 0;
    if (!convertFullToken<unsigned long long>(
            [](const char *s, char **e) {
                return std::strtoull(s, e, 10);
            },
            text, v))
        rejectValue(flag, text);
    return static_cast<std::uint64_t>(v);
}

std::string
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        throw UsageError(std::string("missing value for ") + argv[i]);
    return argv[++i];
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

} // namespace qc::cli
