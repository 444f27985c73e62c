// Tests for the Convolve simulator workload (Figure 1 machinery).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <limits>
#include <thread>
#include <vector>

#include "smilab/apps/convolve/workload.h"
#include "smilab/sim/system.h"
#include "smilab/thread/work_queue.h"

namespace smilab {
namespace {

TEST(ConvolveWorkloadTest, MeasuredCacheBehaviourContrasts) {
  const auto cf = ConvolveWorkload::cache_friendly_workload();
  const auto cu = ConvolveWorkload::cache_unfriendly_workload();
  EXPECT_LT(cf.cache.l1_miss_rate, 0.05);
  EXPECT_GT(cu.cache.l1_miss_rate, 0.40);
  EXPECT_GT(cu.cache.avg_latency_cycles, cf.cache.avg_latency_cycles * 10);
  EXPECT_EQ(cf.threads, 24);
  EXPECT_EQ(cu.threads, 24);
}

TEST(ConvolveWorkloadTest, TotalWorkIsTensOfSeconds) {
  const auto cf = ConvolveWorkload::cache_friendly_workload();
  const auto cu = ConvolveWorkload::cache_unfriendly_workload();
  EXPECT_GT(cf.total_work_seconds(2.4), 8.0);
  EXPECT_LT(cf.total_work_seconds(2.4), 80.0);
  EXPECT_GT(cu.total_work_seconds(2.4), 8.0);
  EXPECT_LT(cu.total_work_seconds(2.4), 80.0);
}

TEST(ConvolveWorkloadTest, BaselineScalesWithPhysicalCores) {
  const auto workload = ConvolveWorkload::cache_unfriendly_workload();
  const double one = run_convolve_sim(workload, 1, SmiConfig::none(), 1).seconds;
  const double four = run_convolve_sim(workload, 4, SmiConfig::none(), 1).seconds;
  EXPECT_NEAR(one / four, 4.0, 0.2);
}

TEST(ConvolveWorkloadTest, HttAddsLittleForCacheHostileThreads) {
  // The paper: CU "did not benefit greatly from HTT" — 4 vs 8 logical CPUs
  // nearly identical.
  const auto workload = ConvolveWorkload::cache_unfriendly_workload();
  const double four = run_convolve_sim(workload, 4, SmiConfig::none(), 1).seconds;
  const double eight = run_convolve_sim(workload, 8, SmiConfig::none(), 1).seconds;
  EXPECT_NEAR(eight, four, four * 0.1);
}

TEST(ConvolveWorkloadTest, SmiKneeAround600ms) {
  // Figure 1: minimal impact for gaps >= ~600 ms, dramatic below.
  const auto workload = ConvolveWorkload::cache_friendly_workload();
  const double base = run_convolve_sim(workload, 4, SmiConfig::none(), 2).seconds;
  const double at_600 =
      run_convolve_sim(workload, 4, SmiConfig::long_with_gap(600), 2).seconds;
  const double at_50 =
      run_convolve_sim(workload, 4, SmiConfig::long_with_gap(50), 2).seconds;
  EXPECT_LT(at_600 / base, 1.30);   // moderate at the knee
  EXPECT_GT(at_50 / base, 2.5);     // blow-up at 50 ms gaps
  EXPECT_LT(at_50 / base, 4.0);     // bounded by gap/(gap+duration) math
}

TEST(ConvolveWorkloadTest, GapFromExitBoundsTheBlowup) {
  // Because the driver re-arms after SMM exit, availability at gap g is
  // g/(g+dur): at 50 ms that is ~32%, so slowdown ~3.1x, never a livelock.
  const auto workload = ConvolveWorkload::cache_unfriendly_workload();
  const double base = run_convolve_sim(workload, 1, SmiConfig::none(), 3).seconds;
  const double noisy =
      run_convolve_sim(workload, 1, SmiConfig::long_with_gap(50), 3).seconds;
  EXPECT_NEAR(noisy / base, 1.0 / (50.0 / 155.0), 0.35);
}

TEST(ConvolveWorkloadTest, SmmStolenTimeAccountedAcrossThreads) {
  const auto workload = ConvolveWorkload::cache_unfriendly_workload();
  const auto result =
      run_convolve_sim(workload, 4, SmiConfig::long_with_gap(500), 7);
  EXPECT_GT(result.smi_hits, 0);
  EXPECT_GT(result.smm_stolen_seconds, 0.0);
}

TEST(ConvolveWorkloadTest, DeterministicPerSeed) {
  const auto workload = ConvolveWorkload::cache_friendly_workload();
  const double a =
      run_convolve_sim(workload, 6, SmiConfig::long_with_gap(200), 9).seconds;
  const double b =
      run_convolve_sim(workload, 6, SmiConfig::long_with_gap(200), 9).seconds;
  EXPECT_DOUBLE_EQ(a, b);
  const double c =
      run_convolve_sim(workload, 6, SmiConfig::long_with_gap(200), 10).seconds;
  EXPECT_NE(a, c);
}

// --- The SMI-free baseline memo ----------------------------------------------
//
// run_convolve_sim computes each SMI-free run once per process and shares it
// across seeds. These tests check the invariant behind that outside the
// memo, with a replica of its System (workload.cpp): without SMIs, no seed
// moves the finish time.

/// The Convolve work queue as run_convolve_sim runs it without SMIs;
/// returns the last worker's finish.
SimTime replica_finish(const ConvolveWorkload& workload, int cpus,
                       std::uint64_t seed) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::poweredge_r410_e5620();
  cfg.node_count = 1;
  cfg.seed = seed;
  System sys{cfg};
  sys.set_online_cpus(cpus);
  const double total_work = workload.total_work_seconds(cfg.machine.ghz);
  const double item_seconds =
      std::clamp(total_work / workload.threads / 64.0, 0.002, 0.020);
  const int items = std::max(workload.threads,
                             static_cast<int>(total_work / item_seconds));
  WorkQueueSpec queue;
  queue.workers = workload.threads;
  queue.profile = workload.profile;
  set_even_items(queue, seconds_d(total_work), items);
  return run_work_queue(sys, std::move(queue)).finished;
}

TEST(ConvolveBaselineTest, SmiFreeRunIsSeedFree) {
  for (const bool friendly : {true, false}) {
    const ConvolveWorkload workload =
        friendly ? ConvolveWorkload::cache_friendly_workload()
                 : ConvolveWorkload::cache_unfriendly_workload();
    for (int cpus = 1; cpus <= 8; ++cpus) {
      const SimTime finish = replica_finish(workload, cpus, 1);
      EXPECT_GT(finish.ns(), 0);
      for (const std::uint64_t seed :
           {std::uint64_t{2}, std::numeric_limits<std::uint64_t>::max()}) {
        EXPECT_EQ(replica_finish(workload, cpus, seed).ns(), finish.ns())
            << (friendly ? "cf" : "cu") << ", " << cpus << " CPUs, seed " << seed;
      }
    }
  }
}

TEST(ConvolveBaselineTest, MemoizedRunMatchesReplicaForAnySeed) {
  for (const bool friendly : {true, false}) {
    const ConvolveWorkload workload =
        friendly ? ConvolveWorkload::cache_friendly_workload()
                 : ConvolveWorkload::cache_unfriendly_workload();
    for (int cpus = 1; cpus <= 8; ++cpus) {
      for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{8}}) {
        const ConvolveRunResult run =
            run_convolve_sim(workload, cpus, SmiConfig::none(), seed);
        EXPECT_EQ(run.seconds, replica_finish(workload, cpus, seed).seconds())
            << (friendly ? "cf" : "cu") << ", " << cpus << " CPUs, seed " << seed;
        EXPECT_EQ(run.smi_hits, 0);
        EXPECT_EQ(run.smm_stolen_seconds, 0.0);
      }
    }
  }
  // A workload that differs from one above only in htt_efficiency gets its
  // own entry: with HTT siblings online it sets a busy sibling's rate.
  ConvolveWorkload slower = ConvolveWorkload::cache_friendly_workload();
  slower.profile.htt_efficiency = 0.5;
  EXPECT_EQ(run_convolve_sim(slower, 8, SmiConfig::none(), 7).seconds,
            replica_finish(slower, 8, 7).seconds());
}

TEST(ConvolveBaselineTest, ConcurrentFirstCallersComputeOnce) {
  // A shape no other test computes (7 threads), so its memo entry is
  // absent even when several suites share one process. Four threads with
  // four seeds ask for it at once: one computes, three wait for its result.
  ConvolveWorkload shape = ConvolveWorkload::cache_friendly_workload();
  shape.threads = 7;
  shape.repeats = 1;
  const std::uint64_t before = convolve_baselines_computed();
  std::latch start{4};
  std::vector<double> seconds(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seconds[static_cast<std::size_t>(t)] =
          run_convolve_sim(shape, 2, SmiConfig::none(),
                           static_cast<std::uint64_t>(100 + t))
              .seconds;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(convolve_baselines_computed(), before + 1);
  for (const double s : seconds) EXPECT_EQ(s, seconds[0]);
  // A later request is a memo hit; one with SMIs never touches the memo.
  (void)run_convolve_sim(shape, 2, SmiConfig::none(), 1);
  (void)run_convolve_sim(shape, 2, SmiConfig::long_with_gap(600), 1);
  EXPECT_EQ(convolve_baselines_computed(), before + 1);
}

}  // namespace
}  // namespace smilab
