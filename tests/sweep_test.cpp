// Tests for the parallel experiment sweep: deterministic collection order,
// inline serial path, exception propagation, and — the property the whole
// PR leans on — bit-equality of swept paper grids at any job count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "smilab/apps/nas/runner.h"
#include "smilab/core/paper_tables.h"
#include "smilab/core/sweep.h"

namespace smilab {
namespace {

TEST(SweepTest, EffectiveJobsResolvesSentinel) {
  EXPECT_EQ(effective_jobs(1), 1);
  EXPECT_EQ(effective_jobs(5), 5);
  EXPECT_GE(effective_jobs(0), 1);   // hardware concurrency, at least 1
  EXPECT_GE(effective_jobs(-3), 1);
}

TEST(SweepTest, MapCollectsInGridOrder) {
  for (const int jobs : {1, 2, 7}) {
    const ExperimentSweep sweep{jobs};
    const std::vector<int> out =
        sweep.map<int>(100, [](int i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
    }
  }
}

TEST(SweepTest, ForEachVisitsEveryCellExactlyOnce) {
  const ExperimentSweep sweep{4};
  std::vector<std::atomic<int>> visits(257);
  sweep.for_each(257, [&](int i) { ++visits[static_cast<std::size_t>(i)]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(SweepTest, JobsOneRunsInlineOnCallingThread) {
  const ExperimentSweep sweep{1};
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  sweep.for_each(16, [&](int) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(SweepTest, EmptyAndSingleCellGrids) {
  const ExperimentSweep sweep{4};
  EXPECT_TRUE(sweep.map<int>(0, [](int i) { return i; }).empty());
  const auto one = sweep.map<int>(1, [](int i) { return i + 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7);
}

TEST(SweepTest, CellExceptionPropagatesToCaller) {
  for (const int jobs : {1, 3}) {
    const ExperimentSweep sweep{jobs};
    EXPECT_THROW(sweep.for_each(32,
                                [](int i) {
                                  if (i == 13) {
                                    throw std::runtime_error{"cell 13"};
                                  }
                                }),
                 std::runtime_error);
  }
}

TEST(SweepPoolTest, DrainWaitsForAllJobs) {
  SweepPool pool{3};
  EXPECT_EQ(pool.workers(), 3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&done] { ++done; });
  }
  pool.drain();
  EXPECT_EQ(done.load(), 50);
  // The pool stays usable after a drain (it is persistent, not one-shot).
  pool.submit([&done] { ++done; });
  pool.drain();
  EXPECT_EQ(done.load(), 51);
}

TEST(SweepPoolTest, DrainRethrowsFirstJobException) {
  SweepPool pool{2};
  std::atomic<int> done{0};
  pool.submit([] { throw std::runtime_error{"job failed"}; });
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] { ++done; });  // later jobs are not cancelled
  }
  EXPECT_THROW(pool.drain(), std::runtime_error);
  EXPECT_EQ(done.load(), 8);
  // The error slot is cleared once reported.
  pool.submit([&done] { ++done; });
  EXPECT_NO_THROW(pool.drain());
  EXPECT_EQ(done.load(), 9);
}

// The headline bit-equality claim: a NAS cell (three SMM regimes x trials)
// produces identical doubles whether swept serially or across 4 threads.
TEST(SweepTest, NasCellBitEqualAcrossJobCounts) {
  const NasJobSpec spec{NasBenchmark::kEP, NasClass::kA, 2, 1};
  NasRunOptions serial;
  serial.trials = 2;
  serial.jobs = 1;
  NasRunOptions parallel = serial;
  parallel.jobs = 4;
  const NasCellResult a = run_nas_cell(spec, serial);
  const NasCellResult b = run_nas_cell(spec, parallel);
  EXPECT_EQ(a.smm0.mean(), b.smm0.mean());
  EXPECT_EQ(a.smm1.mean(), b.smm1.mean());
  EXPECT_EQ(a.smm2.mean(), b.smm2.mean());
  EXPECT_EQ(a.smm0.stddev(), b.smm0.stddev());
  EXPECT_EQ(a.smm2.max(), b.smm2.max());
}

// `smilab nas` and serve's nas experiment share run_nas_pair; its paired
// trials fold back in trial order at any job count.
TEST(SweepTest, NasPairBitEqualAcrossJobCounts) {
  const NasJobSpec spec{NasBenchmark::kFT, NasClass::kA, 4, 1};
  const SmiConfig smi = SmiConfig::long_every_second();
  const NasPairResult a = run_nas_pair(spec, smi, 2016, 4, 1);
  const NasPairResult b = run_nas_pair(spec, smi, 2016, 4, 4);
  EXPECT_EQ(a.base.count(), 4u);
  EXPECT_EQ(a.base.mean(), b.base.mean());
  EXPECT_EQ(a.noisy.mean(), b.noisy.mean());
  EXPECT_EQ(a.base.stddev(), b.base.stddev());
  EXPECT_EQ(a.noisy.max(), b.noisy.max());
}

// A Table-2 sub-grid rendered to text must be byte-identical at any job
// count — the exact guarantee the bench binaries advertise for --jobs.
TEST(SweepTest, Table2SubGridBytesIdenticalAcrossJobCounts) {
  NasRunOptions serial;
  serial.trials = 2;
  serial.jobs = 1;
  NasRunOptions parallel = serial;
  parallel.jobs = 4;
  const std::string a =
      build_nas_table(NasBenchmark::kEP, {1, 2}, 1, serial).to_aligned_text();
  const std::string b =
      build_nas_table(NasBenchmark::kEP, {1, 2}, 1, parallel).to_aligned_text();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace smilab
