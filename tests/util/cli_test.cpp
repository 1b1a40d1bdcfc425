#include "mcs/util/cli.hpp"

#include <gtest/gtest.h>

namespace mcs::util {
namespace {

Cli parse(std::vector<const char*> argv,
          std::map<std::string, std::string> allowed) {
  argv.insert(argv.begin(), "prog");
  return Cli(static_cast<int>(argv.size()), argv.data(), std::move(allowed));
}

const std::map<std::string, std::string> kOpts{
    {"trials", "number of trials"},
    {"seed", "rng seed"},
    {"csv", "csv output path"},
    {"full", "full fidelity"},
};

TEST(CliTest, SpaceSeparatedValues) {
  const Cli cli = parse({"--trials", "500", "--seed", "9"}, kOpts);
  EXPECT_EQ(cli.get_or("trials", std::uint64_t{0}), 500u);
  EXPECT_EQ(cli.get_or("seed", std::uint64_t{0}), 9u);
}

TEST(CliTest, EqualsSeparatedValues) {
  const Cli cli = parse({"--trials=123"}, kOpts);
  EXPECT_EQ(cli.get_or("trials", std::uint64_t{0}), 123u);
}

TEST(CliTest, BooleanFlags) {
  const Cli cli = parse({"--full", "--trials", "10"}, kOpts);
  EXPECT_TRUE(cli.has("full"));
  EXPECT_FALSE(cli.has("csv"));
}

TEST(CliTest, DefaultsWhenAbsent) {
  const Cli cli = parse({}, kOpts);
  EXPECT_EQ(cli.get_or("trials", std::uint64_t{77}), 77u);
  EXPECT_DOUBLE_EQ(cli.get_or("seed", 1.5), 1.5);
  EXPECT_EQ(cli.get_or("csv", std::string{"none"}), "none");
  EXPECT_FALSE(cli.get("csv").has_value());
}

TEST(CliTest, UnknownOptionThrows) {
  EXPECT_THROW(parse({"--bogus", "1"}, kOpts), std::invalid_argument);
}

TEST(CliTest, PositionalArgumentThrows) {
  EXPECT_THROW(parse({"stray"}, kOpts), std::invalid_argument);
}

TEST(CliTest, MalformedNumberThrows) {
  // The whole token must parse, and an unsigned option takes no sign.
  for (const char* token : {"abc", "-1", "12abc"}) {
    const Cli cli = parse({"--trials", token}, kOpts);
    EXPECT_THROW((void)cli.get_or("trials", std::uint64_t{0}),
                 std::invalid_argument)
        << token;
  }
  const Cli cli = parse({"--seed", "0.5x"}, kOpts);
  EXPECT_THROW((void)cli.get_or("seed", 0.0), std::invalid_argument);
}

TEST(CliTest, HelpFlag) {
  const Cli cli = parse({"--help"}, kOpts);
  EXPECT_TRUE(cli.help_requested());
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("--trials"), std::string::npos);
  EXPECT_NE(usage.find("usage: prog"), std::string::npos);
}

TEST(CliTest, DoubleValues) {
  const Cli cli = parse({"--seed", "0.25"}, kOpts);
  EXPECT_DOUBLE_EQ(cli.get_or("seed", 0.0), 0.25);
}

}  // namespace
}  // namespace mcs::util
