// Tests for the bench binaries' shared flag parser (bench/nas_table.h): a
// mistyped or stale flag must stop the bench instead of silently running
// the default configuration. Also the JSON artifact writer
// (bench/bench_json.h): a --quick run must not overwrite a full run's file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
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

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_run(bool quick, int value) {
  BenchJson json("unit");
  json.set("quick", quick);
  json.set("value", value);
  json.write();
}

TEST(BenchJsonTest, QuickRunKeepsAFullRunsFile) {
  // BenchJson writes into the working directory, so the test runs in a
  // fresh temporary one.
  std::string dir = (std::filesystem::temp_directory_path() /
                     "bench_json_test.XXXXXX").string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::filesystem::path old_cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  const std::string path = "BENCH_unit.json";

  write_run(/*quick=*/true, 1);  // no file yet: written
  EXPECT_NE(read_file(path).find("\"value\": 1"), std::string::npos);
  write_run(/*quick=*/true, 2);  // over a quick run: overwritten
  EXPECT_NE(read_file(path).find("\"value\": 2"), std::string::npos);
  write_run(/*quick=*/false, 3);  // a full run always writes
  EXPECT_NE(read_file(path).find("\"value\": 3"), std::string::npos);

  ::testing::internal::CaptureStdout();
  write_run(/*quick=*/true, 4);  // over a full run: kept
  EXPECT_NE(::testing::internal::GetCapturedStdout().find(
                "(kept BENCH_unit.json"),
            std::string::npos);
  EXPECT_NE(read_file(path).find("\"value\": 3"), std::string::npos);
  EXPECT_NE(read_file(path).find("\"quick\": false"), std::string::npos);

  std::filesystem::current_path(old_cwd);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace smilab::benchtool
