/**
 * @file
 * Tests for the checked CLI parse seam (support/cli.hpp):
 * the tools' numeric flags go through these helpers (the options
 * codec's through its strict conversions), so `--jobs foo` is a
 * UsageError with exit code 2 instead of an uncaught
 * std::invalid_argument aborting the process.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "support/cli.hpp"

namespace qc::cli {
namespace {

TEST(CliParse, AcceptsWellFormedValues)
{
    EXPECT_EQ(parseIntFlag("--jobs", "8"), 8);
    EXPECT_EQ(parseIntFlag("--day", "-3"), -3);
    EXPECT_EQ(parseIntFlag("--rows", "+2"), 2);
    EXPECT_EQ(parseUint64Flag("--seed", "20190131"), 20190131u);
}

TEST(CliParse, RejectsNonNumericText)
{
    EXPECT_THROW(parseIntFlag("--jobs", "foo"), UsageError);
    EXPECT_THROW(parseIntFlag("--jobs", ""), UsageError);
    EXPECT_THROW(parseUint64Flag("--seed", "seed"), UsageError);
}

TEST(CliParse, RejectsTrailingGarbage)
{
    // std::stoi would happily return 12 for all of these.
    EXPECT_THROW(parseIntFlag("--rows", "12x"), UsageError);
    EXPECT_THROW(parseIntFlag("--rows", "1 2"), UsageError);
    EXPECT_THROW(parseIntFlag("--rows", " 12"), UsageError);
}

TEST(CliParse, RejectsOutOfRangeValues)
{
    // The out-of-range class that std::stoi turned into an
    // std::out_of_range abort.
    EXPECT_THROW(parseIntFlag("--day", "99999999999999999999"),
                 UsageError);
    EXPECT_THROW(parseIntFlag("--day", "2147483648"), UsageError);
    EXPECT_NO_THROW(parseIntFlag("--day", "2147483647"));
    EXPECT_THROW(parseUint64Flag("--seed", "-1"), UsageError);
}

TEST(CliParse, DiagnosticNamesFlagAndTextWithExitCode2)
{
    try {
        parseIntFlag("--jobs", "foo");
        FAIL() << "expected UsageError";
    } catch (const UsageError &e) {
        EXPECT_STREQ(e.what(), "invalid value for --jobs: 'foo'");
        EXPECT_EQ(e.exitCode(), 2);
    }

    // UsageError stays catchable through the generic FatalError
    // handler chain.
    EXPECT_THROW(parseIntFlag("--jobs", "foo"), FatalError);
}

TEST(CliParse, FlagValueAdvancesOrNamesTheFlag)
{
    std::vector<std::string> args = {"naqc", "--out", "x.qasm", "--out"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    int i = 1;
    EXPECT_EQ(flagValue(4, argv.data(), i), "x.qasm");
    EXPECT_EQ(i, 2);
    i = 3;
    try {
        flagValue(4, argv.data(), i);
        FAIL() << "expected UsageError";
    } catch (const UsageError &e) {
        EXPECT_STREQ(e.what(), "missing value for --out");
        EXPECT_EQ(e.exitCode(), 2);
    }
    EXPECT_EQ(i, 3);
}

} // namespace
} // namespace qc::cli
