// Tests for the NAS workload models: structural properties of the traces,
// class/memory tables, baseline lookups, calibration convergence, and the
// qualitative SMI response the paper reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <variant>
#include <vector>

#include "smilab/apps/nas/nas.h"
#include "smilab/apps/nas/runner.h"

namespace smilab {
namespace {

TEST(NasTablesTest, SerialWorkMatchesSingleRankBaselines) {
  EXPECT_DOUBLE_EQ(nas_serial_work_seconds(NasBenchmark::kEP, NasClass::kA), 23.12);
  EXPECT_DOUBLE_EQ(nas_serial_work_seconds(NasBenchmark::kBT, NasClass::kC), 1585.75);
  EXPECT_DOUBLE_EQ(nas_serial_work_seconds(NasBenchmark::kFT, NasClass::kB), 95.48);
}

TEST(NasTablesTest, ClassScalingIsMonotonic) {
  for (const auto bench : {NasBenchmark::kEP, NasBenchmark::kBT, NasBenchmark::kFT}) {
    EXPECT_LT(nas_serial_work_seconds(bench, NasClass::kA),
              nas_serial_work_seconds(bench, NasClass::kB));
    EXPECT_LT(nas_serial_work_seconds(bench, NasClass::kB),
              nas_serial_work_seconds(bench, NasClass::kC));
    EXPECT_LT(nas_grid_points(bench, NasClass::kA),
              nas_grid_points(bench, NasClass::kC));
  }
}

TEST(NasTablesTest, IterationCountsMatchNpb) {
  EXPECT_EQ(nas_iterations(NasBenchmark::kBT, NasClass::kA), 200);
  EXPECT_EQ(nas_iterations(NasBenchmark::kFT, NasClass::kA), 6);
  EXPECT_EQ(nas_iterations(NasBenchmark::kFT, NasClass::kB), 20);
  EXPECT_EQ(nas_iterations(NasBenchmark::kEP, NasClass::kC), 1);
}

TEST(NasTablesTest, ValidRankCounts) {
  EXPECT_TRUE(nas_valid_rank_count(NasBenchmark::kEP, 7));
  EXPECT_TRUE(nas_valid_rank_count(NasBenchmark::kBT, 16));
  EXPECT_TRUE(nas_valid_rank_count(NasBenchmark::kBT, 64));
  EXPECT_FALSE(nas_valid_rank_count(NasBenchmark::kBT, 8));
  EXPECT_TRUE(nas_valid_rank_count(NasBenchmark::kFT, 32));
  EXPECT_FALSE(nas_valid_rank_count(NasBenchmark::kFT, 12));
  EXPECT_FALSE(nas_valid_rank_count(NasBenchmark::kEP, 0));
}

TEST(NasTablesTest, PaperBaselineLookup) {
  NasJobSpec spec{NasBenchmark::kEP, NasClass::kA, 16, 1};
  ASSERT_TRUE(nas_paper_baseline(spec).has_value());
  EXPECT_DOUBLE_EQ(*nas_paper_baseline(spec), 1.46);

  spec = NasJobSpec{NasBenchmark::kBT, NasClass::kB, 4, 4};
  ASSERT_TRUE(nas_paper_baseline(spec).has_value());
  EXPECT_DOUBLE_EQ(*nas_paper_baseline(spec), 85.53);

  spec = NasJobSpec{NasBenchmark::kFT, NasClass::kC, 1, 1};
  EXPECT_FALSE(nas_paper_baseline(spec).has_value());  // "-" cell

  spec = NasJobSpec{NasBenchmark::kEP, NasClass::kA, 3, 1};  // unmeasured row
  EXPECT_FALSE(nas_paper_baseline(spec).has_value());

  // Only 1 and 4 ranks per node were measured; no other count borrows them.
  for (const int rpn : {2, 3, 5, 8}) {
    spec = NasJobSpec{NasBenchmark::kEP, NasClass::kA, 4, rpn};
    EXPECT_FALSE(nas_paper_baseline(spec).has_value()) << rpn;
    spec.htt = true;
    EXPECT_FALSE(nas_paper_cell(spec).has_value()) << rpn;
  }
}

TEST(NasTablesTest, PaperReportsMirrorsTable3Dashes) {
  EXPECT_FALSE(nas_paper_reports({NasBenchmark::kFT, NasClass::kC, 1, 1}));
  EXPECT_FALSE(nas_paper_reports({NasBenchmark::kFT, NasClass::kC, 2, 1}));
  EXPECT_TRUE(nas_paper_reports({NasBenchmark::kFT, NasClass::kC, 4, 1}));
  EXPECT_TRUE(nas_paper_reports({NasBenchmark::kFT, NasClass::kC, 1, 4}));
  EXPECT_TRUE(nas_paper_reports({NasBenchmark::kBT, NasClass::kC, 1, 1}));
}

TEST(NasMemoryTest, FootprintShrinksWithRanks) {
  const double one = nas_bytes_per_rank(NasBenchmark::kFT, NasClass::kC, 1);
  const double four = nas_bytes_per_rank(NasBenchmark::kFT, NasClass::kC, 4);
  EXPECT_NEAR(one / four, 4.0, 1e-9);
}

TEST(NasMemoryTest, Ft_C_FitsWyeastButNotSmallNodes) {
  const NasJobSpec spec{NasBenchmark::kFT, NasClass::kC, 1, 1};
  EXPECT_TRUE(nas_fits_memory(spec, 12.0));   // marginal but fits (7.5 GB)
  EXPECT_FALSE(nas_fits_memory(spec, 6.0));   // would OOM on 6 GB nodes
  const NasJobSpec packed{NasBenchmark::kFT, NasClass::kC, 1, 4};
  EXPECT_FALSE(nas_fits_memory(packed, 6.0));
  EXPECT_TRUE(nas_fits_memory({NasBenchmark::kEP, NasClass::kC, 1, 4}, 12.0));
}

TEST(NasTraceTest, EpTraceIsComputeThenSmallCollectives) {
  const auto programs = build_nas_trace({NasBenchmark::kEP, NasClass::kA, 4, 1}, NasKnob{});
  ASSERT_EQ(programs.size(), 4u);
  for (const auto& rp : programs) {
    ASSERT_FALSE(rp.actions().empty());
    EXPECT_TRUE(std::holds_alternative<Compute>(rp.actions().front()));
    // Everything after the compute is small collective traffic.
    for (std::size_t i = 1; i < rp.actions().size(); ++i) {
      const bool comm = std::holds_alternative<SendRecv>(rp.actions()[i]) ||
                        std::holds_alternative<Send>(rp.actions()[i]) ||
                        std::holds_alternative<Recv>(rp.actions()[i]);
      EXPECT_TRUE(comm);
    }
  }
}

TEST(NasTraceTest, EpComputeSplitsEvenly) {
  const auto p1 = build_nas_trace({NasBenchmark::kEP, NasClass::kA, 1, 1}, NasKnob{});
  const auto p4 = build_nas_trace({NasBenchmark::kEP, NasClass::kA, 4, 1}, NasKnob{});
  const auto& w1 = std::get<Compute>(p1[0].actions()[0]).work;
  const auto& w4 = std::get<Compute>(p4[0].actions()[0]).work;
  EXPECT_NEAR(w1.seconds(), 4.0 * w4.seconds(), 1e-9);
}

TEST(NasTraceTest, BtTraceHasPerIterationExchanges) {
  const auto programs = build_nas_trace({NasBenchmark::kBT, NasClass::kA, 4, 1}, NasKnob{4096, 0});
  ASSERT_EQ(programs.size(), 4u);
  int computes = 0;
  int exchanges = 0;
  for (const auto& a : programs[0].actions()) {
    if (std::holds_alternative<Compute>(a)) ++computes;
    if (const auto* sr = std::get_if<SendRecv>(&a)) {
      ++exchanges;
      EXPECT_EQ(sr->send_bytes, 4096);
    }
  }
  EXPECT_EQ(computes, 200);
  EXPECT_EQ(exchanges % 200, 0);
  EXPECT_GE(exchanges / 200, 2);  // at least 2 distinct torus partners at p=4
}

TEST(NasTraceTest, FtTraceAlltoallPerIteration) {
  const auto programs = build_nas_trace({NasBenchmark::kFT, NasClass::kA, 4, 1}, NasKnob{8192, 0});
  ASSERT_EQ(programs.size(), 4u);
  int exchanges = 0;
  for (const auto& a : programs[0].actions()) {
    if (std::holds_alternative<SendRecv>(a)) ++exchanges;
  }
  // 6 iterations x (p-1) pairwise exchanges + final allreduce rounds.
  EXPECT_GE(exchanges, 6 * 3);
}

TEST(NasTraceTest, SingleRankHasNoCommunication) {
  for (const auto bench : {NasBenchmark::kEP, NasBenchmark::kBT, NasBenchmark::kFT}) {
    const auto programs = build_nas_trace({bench, NasClass::kA, 1, 1}, NasKnob{4096, 0});
    for (const auto& a : programs[0].actions()) {
      EXPECT_TRUE(std::holds_alternative<Compute>(a));
    }
  }
}

TEST(NasCalibrationTest, SingleRankMatchesBaselineExactly) {
  const NasJobSpec spec{NasBenchmark::kFT, NasClass::kA, 1, 1};
  const NasKnob knob = calibrate_nas_knob(spec);
  const double t = simulate_nas_once(spec, knob, SmiConfig::none(), 1, 0.0);
  EXPECT_NEAR(t, 7.64, 0.08);
}

TEST(NasCalibrationTest, MultiNodeBaselineWithinOnePercent) {
  const NasJobSpec spec{NasBenchmark::kFT, NasClass::kA, 4, 1};
  const NasKnob knob = calibrate_nas_knob(spec);
  const double t = simulate_nas_once(spec, knob, SmiConfig::none(), 1, 0.0);
  ASSERT_TRUE(nas_paper_baseline(spec).has_value());
  EXPECT_NEAR(t, *nas_paper_baseline(spec), 0.01 * *nas_paper_baseline(spec) + 0.02);
}

TEST(NasCalibrationTest, EpPadReproducesBaseline) {
  const NasJobSpec spec{NasBenchmark::kEP, NasClass::kA, 16, 1};
  const NasKnob knob = calibrate_nas_knob(spec);
  const double t = simulate_nas_once(spec, knob, SmiConfig::none(), 1, 0.0);
  EXPECT_NEAR(t, 1.46, 0.02);
}

TEST(NasCalibrationTest, EpAtTwoRanksPerNodeRunsSlowerThanAtFour) {
  // The paper ran 1 or 4 ranks per node. EP A on 4 nodes at 2 ranks/node
  // is a cell it never measured: 8 ranks must not be calibrated to the
  // 16-rank baseline, so without SMIs they take longer than 16 do.
  const NasJobSpec two{NasBenchmark::kEP, NasClass::kA, 4, 2};
  const NasJobSpec four{NasBenchmark::kEP, NasClass::kA, 4, 4};
  EXPECT_FALSE(nas_paper_baseline(two).has_value());
  ASSERT_TRUE(nas_paper_baseline(four).has_value());
  const double t2 =
      simulate_nas_once(two, calibrate_nas_knob(two), SmiConfig::none(), 1, 0.0);
  const double t4 = simulate_nas_once(four, calibrate_nas_knob(four),
                                      SmiConfig::none(), 1, 0.0);
  EXPECT_GT(t2, t4);
}

TEST(NasSmiResponseTest, LongSmiSingleRankNearDutyCycle) {
  // Table 2, EP A 1 rank: +10.99%. Expect ~10-12% from the simulation.
  const NasJobSpec spec{NasBenchmark::kEP, NasClass::kA, 1, 1};
  const NasKnob knob = calibrate_nas_knob(spec);
  const double base = simulate_nas_once(spec, knob, SmiConfig::none(), 3, 0.0);
  const double noisy =
      simulate_nas_once(spec, knob, SmiConfig::long_every_second(), 3, 0.0);
  const double pct = (noisy / base - 1.0) * 100.0;
  EXPECT_GT(pct, 9.0);
  EXPECT_LT(pct, 14.0);
}

TEST(NasSmiResponseTest, ShortSmiNegligible) {
  const NasJobSpec spec{NasBenchmark::kEP, NasClass::kA, 1, 1};
  const NasKnob knob = calibrate_nas_knob(spec);
  const double base = simulate_nas_once(spec, knob, SmiConfig::none(), 3, 0.0);
  const double noisy =
      simulate_nas_once(spec, knob, SmiConfig::short_every_second(), 3, 0.0);
  EXPECT_LT((noisy / base - 1.0) * 100.0, 1.5);
}

TEST(NasSmiResponseTest, FtAmplifiesBeyondDutyCycleAcrossNodes) {
  // Table 3, FT A: long-SMI impact grows well past 10.5% with node count.
  const NasJobSpec spec{NasBenchmark::kFT, NasClass::kA, 4, 1};
  const NasKnob knob = calibrate_nas_knob(spec);
  OnlineStats base, noisy;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    base.add(simulate_nas_once(spec, knob, SmiConfig::none(), s, 0.0));
    noisy.add(
        simulate_nas_once(spec, knob, SmiConfig::long_every_second(), s, 0.0));
  }
  const double pct = (noisy.mean() / base.mean() - 1.0) * 100.0;
  EXPECT_GT(pct, 14.0);  // amplified beyond the single-node duty cycle
}

TEST(NasRunCellTest, CollectsTrialsAndStats) {
  NasRunOptions options;
  options.trials = 3;
  const NasCellResult cell =
      run_nas_cell({NasBenchmark::kEP, NasClass::kA, 2, 1}, options);
  EXPECT_EQ(cell.smm0.count(), 3u);
  EXPECT_EQ(cell.smm1.count(), 3u);
  EXPECT_EQ(cell.smm2.count(), 3u);
  ASSERT_TRUE(cell.paper_baseline_s.has_value());
  EXPECT_NEAR(cell.smm0.mean(), *cell.paper_baseline_s,
              0.02 * *cell.paper_baseline_s);
  EXPECT_GT(cell.smm2.mean(), cell.smm0.mean() * 1.05);
}

}  // namespace
}  // namespace smilab
