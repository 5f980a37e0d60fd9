// The command-line reader every front end shares: how arguments split into
// flags and positionals. The front ends' own tables and messages are
// tested with them (tests/runtime/cli_test.cpp for tlsim, the ReportCli
// tests in tests/obs for tlsreport, and the bench_fig4 ctests).
#include "simcore/flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace tls::sim {
namespace {

// A few of tlsim's flags.
constexpr std::string_view kSwitches[] = {"csv", "background"};
constexpr std::string_view kValues[] = {"hosts", "seed", "trace-csv"};

TEST(CliParse, FlagsAndPositionals) {
  CliArgs args;
  std::string error;
  ASSERT_TRUE(parse_args({"run", "--hosts", "8", "--csv", "--seed=9"},
                         kSwitches, kValues, &args, &error));
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "run");
  EXPECT_EQ(args.get("hosts"), "8");
  EXPECT_EQ(args.get("seed"), "9");
  EXPECT_TRUE(args.has("csv"));
  EXPECT_EQ(args.get("csv"), "true");
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
}

TEST(CliParse, LastFlagWins) {
  CliArgs args;
  std::string error;
  ASSERT_TRUE(parse_args({"--seed", "1", "--seed", "2"}, kSwitches, kValues,
                         &args, &error));
  EXPECT_EQ(args.get("seed"), "2");
}

TEST(CliParse, EmptyFlagRejected) {
  CliArgs args;
  std::string error;
  EXPECT_FALSE(parse_args({"--"}, kSwitches, kValues, &args, &error));
  EXPECT_FALSE(error.empty());
}

TEST(CliParse, ValueFlagGivenBareNeedsAValue) {
  CliArgs args;
  std::string error;
  EXPECT_FALSE(parse_args({"run", "--trace-csv", "--seed", "3"}, kSwitches,
                          kValues, &args, &error));
  EXPECT_EQ(error, "--trace-csv needs a value");
}

TEST(CliParse, SwitchNeverTakesTheNextToken) {
  // tlsreport's shape: --diff is a switch, so both paths stay positional.
  constexpr std::string_view kReportSwitches[] = {"diff", "quiet"};
  CliArgs args;
  std::string error;
  ASSERT_TRUE(parse_args({"--diff", "a.csv", "b.csv", "--quiet"},
                         kReportSwitches, {}, &args, &error));
  EXPECT_EQ(args.positional, (std::vector<std::string>{"a.csv", "b.csv"}));
  EXPECT_TRUE(args.has("diff"));
  EXPECT_TRUE(args.has("quiet"));
}

}  // namespace
}  // namespace tls::sim
