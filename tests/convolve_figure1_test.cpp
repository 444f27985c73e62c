// Figure 1's claims as executable checks (PAPER.md §1; EXPERIMENTS.md
// "Figure 1"). Every run uses fig1_convolve's seeds: a (gap, CPUs) cell's
// trial t runs on seed gap*131 + cpus*17 + t, the SMI-free baselines on
// seed 1 and the short-SMI check on seed 5. Each tolerance is stated with
// the value it was measured against, so a model change that moves a claim
// fails here instead of silently editing the figure's prose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>

#include "smilab/apps/convolve/workload.h"

namespace smilab {
namespace {

/// fig1_convolve's seed for trial `trial` of the (gap, cpus) cell.
std::uint64_t fig1_seed(int gap_ms, int cpus, int trial) {
  return static_cast<std::uint64_t>(gap_ms * 131 + cpus * 17 + trial);
}

double smi_free(const ConvolveWorkload& workload, int cpus) {
  return run_convolve_sim(workload, cpus, SmiConfig::none(), 1).seconds;
}

struct Cell {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// Min-max spread over the trials, relative to their mean (fig1's right
  /// panel "spread %", as a fraction).
  [[nodiscard]] double spread() const { return (max - min) / mean; }
};

/// A left- or right-panel cell: `trials` runs under long SMIs every
/// `gap_ms`.
Cell long_smi_cell(const ConvolveWorkload& workload, int cpus, int gap_ms,
                   int trials) {
  Cell cell{0.0, 1e300, 0.0};
  for (int t = 0; t < trials; ++t) {
    const double s = run_convolve_sim(workload, cpus,
                                      SmiConfig::long_with_gap(gap_ms),
                                      fig1_seed(gap_ms, cpus, t))
                         .seconds;
    cell.mean += s / trials;
    cell.min = std::min(cell.min, s);
    cell.max = std::max(cell.max, s);
  }
  return cell;
}

// fig1_convolve --quick's two trials per left-panel point; the paper's
// three runs per right-panel point.
constexpr int kLeftTrials = 2;
constexpr int kRightTrials = 3;

TEST(ConvolveFigure1Test, CacheUnfriendlyIsFlatFromSixHundredMs) {
  // "Minimal impact for gaps >= ~600 ms": from 600 to 1500 ms the loss
  // stays near the long-SMI duty cycle, 105/(gap + 105) of the CPU, which
  // is 15% at 600 ms. Measured on 1 CPU: 1.176x the SMI-free 32.29 s at
  // 600 ms, 1.132x (36.55 s) at 800 ms, 1.070x (34.55 s) at 1500 ms. The
  // bound of 1.20x leaves 0.024 of margin; the 50 ms blow-up is 3.1x.
  const ConvolveWorkload cu = ConvolveWorkload::cache_unfriendly_workload();
  const double base = smi_free(cu, 1);
  double previous = 1e300;
  for (int gap = 600; gap <= 1500; gap += 100) {
    const double mean = long_smi_cell(cu, 1, gap, kLeftTrials).mean;
    EXPECT_LT(mean / base, 1.20) << gap << " ms";
    // Longer gaps never cost more: neighbouring points 100 ms apart differ
    // by 0.45-2.1% of the time, the two trials of a point by at most 0.42%.
    EXPECT_LT(mean, previous) << gap << " ms";
    previous = mean;
  }
}

TEST(ConvolveFigure1Test, CacheUnfriendlyBlowsUpTowardFiftyMs) {
  // The "dramatic impact" at short gaps: 1 CPU reads 100.2 s at 50 ms
  // against 34.55 s at 1500 ms (2.90x) and 43.6 s at 300 ms.
  const ConvolveWorkload cu = ConvolveWorkload::cache_unfriendly_workload();
  const double at_50 = long_smi_cell(cu, 1, 50, kLeftTrials).mean;
  const double at_300 = long_smi_cell(cu, 1, 300, kLeftTrials).mean;
  const double at_1500 = long_smi_cell(cu, 1, 1500, kLeftTrials).mean;
  EXPECT_GT(at_300, at_1500);
  EXPECT_GT(at_50, at_300);
  EXPECT_GT(at_50 / at_1500, 2.5);  // 2.90 measured
  // The driver re-arms from SMM exit, so a 105 ms SMI every 50 ms leaves
  // the CPU 50/155 of the time: at most (50 + 105)/50 = 3.1x the SMI-free
  // time, plus the post-SMM refill. Measured 3.104x; the 2% allowance is
  // the refill's, and a source that re-armed from SMM entry would starve
  // the run instead (ablation_rearm_policy: >2000x).
  EXPECT_LT(at_50 / smi_free(cu, 1), 3.1 * 1.02);
}

TEST(ConvolveFigure1Test, CacheUnfriendlyFourCpusMatchEight) {
  // "Similarity of results for 4-8 logical cores": HTT siblings add little
  // to cache-hostile threads. 4 vs 8 CPUs read 8.08 vs 7.78 s without SMIs
  // (3.7% apart) and 25.02 vs 24.78 s at 50 ms (1.0%); the bound is 5%,
  // against the 4x that 1 -> 4 physical cores give.
  const ConvolveWorkload cu = ConvolveWorkload::cache_unfriendly_workload();
  const double four = smi_free(cu, 4);
  const double eight = smi_free(cu, 8);
  EXPECT_NEAR(eight / four, 1.0, 0.05);
  EXPECT_NEAR(smi_free(cu, 1) / four, 4.0, 0.05);
  const double four_50 = long_smi_cell(cu, 4, 50, kRightTrials).mean;
  const double eight_50 = long_smi_cell(cu, 8, 50, kRightTrials).mean;
  EXPECT_NEAR(eight_50 / four_50, 1.0, 0.05);
}

TEST(ConvolveFigure1Test, ShortSmisCostTheirDutyCycle) {
  // "Minimal effects of short SMMs": 1-3 ms SMIs every 50 ms (from exit)
  // take 2/52 = 3.85% of the CPU. CacheFriendly on 8 CPUs goes from 2.875
  // to 2.996 s (+4.18%); the bound is +-1 point around the duty cycle.
  const ConvolveWorkload cf = ConvolveWorkload::cache_friendly_workload();
  const double base = run_convolve_sim(cf, 8, SmiConfig::none(), 5).seconds;
  const double with_short =
      run_convolve_sim(cf, 8, SmiConfig::short_with_gap(50), 5).seconds;
  EXPECT_NEAR(with_short / base - 1.0, 2.0 / 52.0, 0.01);
}

TEST(ConvolveFigure1Test, SpreadOverSeedsGrowsWithLogicalCpus) {
  // The right panels: at 50 ms the run-to-run spread is small while every
  // thread has a physical core and grows once HTT siblings share them (the
  // per-run placement luck). Over the paper's three runs, the largest
  // spread at 1-4 CPUs read 0.37% (CU) and 1.06% (CF); the smallest at
  // 7-8 CPUs read 2.00% and 9.06%. The check asks for a factor of 2.
  for (const bool friendly : {false, true}) {
    const ConvolveWorkload workload =
        friendly ? ConvolveWorkload::cache_friendly_workload()
                 : ConvolveWorkload::cache_unfriendly_workload();
    double physical = 0.0;
    for (int cpus = 1; cpus <= 4; ++cpus) {
      physical = std::max(
          physical, long_smi_cell(workload, cpus, 50, kRightTrials).spread());
    }
    double siblings = 1e300;
    for (const int cpus : {7, 8}) {
      siblings = std::min(
          siblings, long_smi_cell(workload, cpus, 50, kRightTrials).spread());
    }
    EXPECT_GT(siblings, 2.0 * physical) << (friendly ? "cf" : "cu");
  }
}

}  // namespace
}  // namespace smilab
