// Additional coverage: new collectives under SMI noise, nonblocking
// builder structure, option parser corners, and chart options.
#include <gtest/gtest.h>

#include <variant>

#include "smilab/apps/nas/nas.h"
#include "smilab/cli/options.h"
#include "smilab/mpi/collectives.h"
#include "smilab/mpi/job.h"
#include "smilab/stats/ascii_chart.h"

namespace smilab {
namespace {

double run_programs(std::vector<RankProgram> programs, SmiConfig smi,
                    std::uint64_t seed) {
  const int p = static_cast<int>(programs.size());
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = p;
  cfg.net = NetworkParams::wyeast();
  cfg.smi = smi;
  cfg.seed = seed;
  System sys{cfg};
  return run_mpi_job(sys, std::move(programs), block_placement(p, 1),
                     WorkloadProfile::dense_fp())
      .elapsed.seconds();
}

class TreeCollectivesUnderSmi : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, TreeCollectivesUnderSmi,
                         ::testing::Values(4, 8, 16));

TEST_P(TreeCollectivesUnderSmi, GatherScatterChainsSurviveNoise) {
  const int p = GetParam();
  auto build = [&] {
    auto programs = make_rank_programs(p);
    TagAllocator tags;
    for (int iter = 0; iter < 10; ++iter) {
      for (auto& rp : programs) rp.compute(milliseconds(50));
      gather(programs, 0, 4096, tags);
      scatter(programs, 0, 4096, tags);
      reduce_scatter(programs, 512, tags);
      scan(programs, 256, tags);
    }
    return programs;
  };
  const double base = run_programs(build(), SmiConfig::none(), 5);
  const double noisy = run_programs(build(), SmiConfig::long_every_second(), 5);
  // Four chained collectives per iteration amplify hard at 16 nodes; the
  // bound is the all-nodes-serially-frozen worst case, not a target value.
  EXPECT_GT(noisy / base, 1.08);
  EXPECT_LT(noisy / base, 7.0);
}

TEST(RankProgramTest, NonblockingBuilderEmitsActions) {
  RankProgram rp{0, 4};
  rp.isend(1, 1024, 5, 7);
  rp.irecv(2, 6, 8);
  rp.waitall({7, 8});
  const auto actions = RankProgram{rp}.take();
  ASSERT_EQ(actions.size(), 3u);
  const auto* isend = std::get_if<Isend>(&actions[0]);
  ASSERT_NE(isend, nullptr);
  EXPECT_EQ(isend->dst_rank, 1);
  EXPECT_EQ(isend->handle, 7);
  const auto* irecv = std::get_if<Irecv>(&actions[1]);
  ASSERT_NE(irecv, nullptr);
  EXPECT_EQ(irecv->src_rank, 2);
  const auto* wait = std::get_if<WaitAll>(&actions[2]);
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->handles, (std::vector<int>{7, 8}));
}

TEST(OptionsTest, ExplicitFalseBoolean) {
  const char* argv[] = {"smilab", "nas", "--htt=false", "--flag=0"};
  std::string error;
  const auto options = Options::parse(4, argv, &error);
  ASSERT_TRUE(options.has_value());
  EXPECT_FALSE(options->get_bool("htt", true, &error));
  EXPECT_FALSE(options->get_bool("flag", true, &error));
  EXPECT_TRUE(options->get_bool("absent", true, &error));
  EXPECT_TRUE(error.empty()) << error;
}

TEST(AsciiChartTest, YFromDataWhenNotZeroBased) {
  Series series{"x", {"a"}};
  series.add_point(0, {100.0});
  series.add_point(10, {110.0});
  ChartOptions options;
  options.y_from_zero = false;
  options.height = 8;
  const std::string chart = render_ascii_chart(series, options);
  // Axis labels should show the data band, not zero.
  EXPECT_EQ(chart.find("   0 |"), std::string::npos);
  EXPECT_NE(chart.find("100"), std::string::npos);
}

TEST(NasWorkUnitsTest, UnitsAndRates) {
  EXPECT_DOUBLE_EQ(nas_work_units(NasBenchmark::kEP, NasClass::kA),
                   static_cast<double>(1LL << 28));
  EXPECT_DOUBLE_EQ(nas_work_units(NasBenchmark::kBT, NasClass::kA),
                   64.0 * 64 * 64 * 200);
  EXPECT_STREQ(nas_work_unit_name(NasBenchmark::kEP), "pairs");
  EXPECT_STREQ(nas_work_unit_name(NasBenchmark::kFT), "cell updates");
}

}  // namespace
}  // namespace smilab
