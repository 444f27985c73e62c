// Tests for the parallel experiment sweep: deterministic collection order,
// inline serial path, exception propagation, a sweep that borrows the
// SweepPool it runs on, and bit-equality of swept paper grids at any job
// count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
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

// --- A sweep started on a SweepPool worker borrows that pool ------------------

/// Run `body` as one job on `pool` and wait for it (rethrowing its failure).
void run_on(SweepPool& pool, const std::function<void()>& body) {
  pool.submit(body);
  pool.drain();
}

/// Spin until `flag` is set or 30 s pass; false on timeout, so a broken
/// sweep fails the test instead of hanging it.
bool await(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(SweepForkJoinTest, OneWorkerPoolCallerRunsEveryCell) {
  // The pool has no other worker to lend, so the sweep enqueues no helper
  // and starts no thread: every cell runs on the calling worker.
  SweepPool pool{1};
  std::thread::id caller;
  std::vector<std::thread::id> ran(16);
  run_on(pool, [&] {
    caller = std::this_thread::get_id();
    ExperimentSweep{4}.for_each(16, [&](int i) {
      ran[static_cast<std::size_t>(i)] = std::this_thread::get_id();
    });
  });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(SweepForkJoinTest, CompletesWhileTheOtherWorkerIsBlocked) {
  // One worker is held until the sweep on the other returns. The sweep's
  // helper job waits in the queue behind nothing it could wait for: the
  // caller drains every cell itself and waits only for claimed cells.
  SweepPool pool{2};
  std::atomic<bool> blocked{false};
  std::promise<void> release;
  pool.submit([&blocked, hold = release.get_future().share()] {
    blocked = true;
    hold.wait();
  });
  ASSERT_TRUE(await(blocked));

  std::thread::id caller;
  std::vector<std::thread::id> ran(64);
  std::promise<void> swept;
  auto done = swept.get_future();
  pool.submit([&] {
    caller = std::this_thread::get_id();
    ExperimentSweep{4}.for_each(64, [&](int i) {
      ran[static_cast<std::size_t>(i)] = std::this_thread::get_id();
    });
    swept.set_value();
  });
  const bool finished =
      done.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.set_value();
  pool.drain();
  ASSERT_TRUE(finished) << "the sweep waited on the blocked worker";
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(SweepForkJoinTest, ThrowingHelperCellReachesTheCallerNotDrain) {
  // Cells throw only on a helper, and a cell on the caller holds until a
  // helper has thrown, so a helper's failure is what reaches the caller.
  SweepPool pool{2};
  std::atomic<bool> thrown{false};
  std::atomic<bool> timed_out{false};
  std::string caught;
  EXPECT_NO_THROW(run_on(pool, [&] {
    const std::thread::id caller = std::this_thread::get_id();
    try {
      ExperimentSweep{2}.for_each(8, [&](int) {
        if (std::this_thread::get_id() != caller) {
          thrown = true;
          throw std::runtime_error{"helper cell"};
        }
        if (!timed_out && !await(thrown)) timed_out = true;
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
  }));
  EXPECT_FALSE(timed_out.load()) << "no helper ran a cell";
  EXPECT_EQ(caught, "helper cell");
}

TEST(SweepForkJoinTest, LateHelperTouchesOnlyTheBatch) {
  // The helper starts after the sweep returned and after its cell function
  // was freed: it must claim nothing and never call that function (ASan
  // reports a use after free if it does).
  SweepPool pool{2};
  std::atomic<bool> blocked{false};
  std::promise<void> release;
  pool.submit([&blocked, hold = release.get_future().share()] {
    blocked = true;
    hold.wait();
  });
  ASSERT_TRUE(await(blocked));

  std::thread::id caller;
  std::vector<std::thread::id> ran(4);
  {
    std::promise<void> swept;
    auto done = swept.get_future();
    pool.submit([&] {
      caller = std::this_thread::get_id();
      auto fn = std::make_unique<std::function<void(int)>>([&ran](int i) {
        ran[static_cast<std::size_t>(i)] = std::this_thread::get_id();
      });
      ExperimentSweep{2}.for_each(4, *fn);
      fn.reset();
      swept.set_value();
    });
    ASSERT_EQ(done.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
  }
  release.set_value();
  pool.drain();  // the freed worker now runs the queued helper
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(SweepForkJoinTest, QueuedJobRunsBetweenAHelpersCells) {
  // A helper runs one cell per turn and queues its next turn behind the
  // jobs that arrived meanwhile, so a long sweep does not keep the pool's
  // other workers from later requests. Cells 0 and 1 hold one worker each
  // until a job is queued; the later cells hold until that job has run,
  // which needs the helper to give its worker back after one cell.
  std::atomic<int> holding{0};
  std::atomic<bool> queued{false};
  std::atomic<bool> job_ran{false};
  std::atomic<bool> timed_out{false};
  std::promise<void> swept;
  auto done = swept.get_future();
  SweepPool pool{2};  // declared last: joined before the state above dies
  pool.submit([&] {
    ExperimentSweep{2}.for_each(4, [&](int i) {
      if (i < 2) ++holding;
      if (!await(i < 2 ? queued : job_ran)) timed_out = true;
    });
    swept.set_value();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (holding.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(holding.load(), 2) << "no helper joined the sweep";
  pool.submit([&job_ran] { job_ran = true; });
  queued = true;
  ASSERT_EQ(done.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  pool.drain();
  EXPECT_FALSE(timed_out.load())
      << "the queued job waited for every cell of the sweep";
}

TEST(SweepForkJoinTest, MapOnABorrowedPoolEqualsSerial) {
  // Outer cells each run an inner sweep: on a pool worker both levels
  // borrow the pool, and from the test thread both run on the outer
  // sweep's transient pool. Either way the grid equals the serial one.
  const auto grid = [](int jobs) {
    const ExperimentSweep sweep{jobs};
    return sweep.map<std::uint64_t>(24, [&sweep](int i) {
      const std::vector<std::uint64_t> inner =
          sweep.map<std::uint64_t>(8, [i](int j) {
            std::uint64_t h = 1469598103934665603ull;
            for (int k = 0; k < 2000 + 100 * j; ++k) {
              h = (h ^ static_cast<std::uint64_t>(i * 8 + j + k)) *
                  1099511628211ull;
            }
            return h;
          });
      std::uint64_t folded = 0;
      for (const std::uint64_t h : inner) folded = folded * 31 + h;
      return folded;
    });
  };
  const std::vector<std::uint64_t> serial = grid(1);
  EXPECT_EQ(grid(4), serial);
  SweepPool pool{3};
  std::vector<std::uint64_t> borrowed;
  run_on(pool, [&] { borrowed = grid(4); });
  EXPECT_EQ(borrowed, serial);
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

// Each row's two cells sweep their 3 x trials runs on the grid's own pool
// (nested sweeps borrow it); the table's bytes do not move.
TEST(SweepTest, HttTableBytesIdenticalAcrossJobCounts) {
  NasRunOptions serial;
  serial.trials = 2;
  serial.jobs = 1;
  NasRunOptions parallel = serial;
  parallel.jobs = 4;
  EXPECT_EQ(build_htt_table(NasBenchmark::kEP, serial).to_aligned_text(),
            build_htt_table(NasBenchmark::kEP, parallel).to_aligned_text());
}

}  // namespace
}  // namespace smilab
