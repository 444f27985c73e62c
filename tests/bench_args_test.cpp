// Tests for the bench binaries' shared flag parser (bench/nas_table.h): a
// mistyped or stale flag must stop the bench instead of silently running
// the default configuration.
#include <gtest/gtest.h>

#include <vector>

#include "nas_table.h"

namespace smilab::benchtool {
namespace {

BenchArgs parse(std::vector<const char*> args,
                std::initializer_list<std::string_view> extra_flags = {}) {
  args.insert(args.begin(), "table2_ep");
  return BenchArgs::parse(static_cast<int>(args.size()),
                          const_cast<char**>(args.data()), extra_flags);
}

TEST(BenchArgsTest, ParsesSharedFlags) {
  const BenchArgs args = parse({"--quick", "--jobs=3", "--csv=out"});
  EXPECT_TRUE(args.quick);
  EXPECT_EQ(args.trials, 2);
  EXPECT_EQ(args.jobs, 3);
  EXPECT_EQ(args.csv_prefix, "out");
}

TEST(BenchArgsTest, UnknownFlagPrintsUsageAndExits2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT((void)parse({"--quick", "--trails=1"}),
              ::testing::ExitedWithCode(2), "unknown flag '--trails=1'");
  EXPECT_EXIT((void)parse({"--retained"}), ::testing::ExitedWithCode(2),
              "usage: table2_ep");
}

TEST(BenchArgsTest, DeclaredExtraFlagsAreAccepted) {
  const BenchArgs args =
      parse({"--no-table", "--max-ranks=65536", "--quick"},
            {"--no-table", "--max-ranks="});
  EXPECT_TRUE(args.quick);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A bare switch takes no value, and a valued flag needs its '='.
  EXPECT_EXIT((void)parse({"--no-table=1"}, {"--no-table"}),
              ::testing::ExitedWithCode(2), "unknown flag '--no-table=1'");
  EXPECT_EXIT((void)parse({"--max-ranks"}, {"--max-ranks="}),
              ::testing::ExitedWithCode(2), "\\[--max-ranks=N\\]");
}

}  // namespace
}  // namespace smilab::benchtool
