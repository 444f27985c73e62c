// The search that fitted apps/nas/runner.cpp's pinned NAS knobs, kept as
// their oracle. It bisects each cell's exchange size over full no-SMI
// simulations (seed 1, no node-speed spread) and absorbs the residual into
// a per-iteration compute pad. One TEST per benchmark re-runs it for every
// row of that benchmark and requires both fields exactly; on a mismatch it
// prints the row to paste into the table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "smilab/apps/nas/nas.h"
#include "smilab/apps/nas/runner.h"

namespace smilab {
namespace {

NasKnob calibrate_uncached(const NasJobSpec& spec) {
  const int p = spec.ranks();
  const int niter = nas_iterations(spec.bench, spec.cls);
  const double compute = nas_serial_work_seconds(spec.bench, spec.cls) / p;
  const auto paper = nas_paper_baseline(spec);

  const auto runtime = [&](NasKnob knob) {
    return simulate_nas_once(spec, knob, SmiConfig::none(), 1, 0.0);
  };
  // `t` is runtime(knob), already measured by the caller.
  const auto pad_residual = [&](NasKnob knob, double t, double target) {
    // The pad enters the runtime additively (one pad per iteration on the
    // critical path), so one probe pins it down exactly.
    const double per_iter = (target - t) / niter;
    knob.iter_pad_ns = static_cast<std::int64_t>(per_iter * 1e9);
    // Never drive the per-iteration compute negative.
    const auto floor_ns =
        -static_cast<std::int64_t>(compute / niter * 1e9) + 1000;
    knob.iter_pad_ns = std::max(knob.iter_pad_ns, floor_ns);
    return knob;
  };

  if (spec.bench == NasBenchmark::kEP) {
    NasKnob knob;
    if (!paper) return knob;
    return pad_residual(knob, runtime(knob), *paper);
  }

  if (!paper) {
    // Unreported cell: fall back to the physical message volume.
    return NasKnob{std::max<std::int64_t>(64, physical_exchange_bytes(spec)), 0};
  }

  const double target = *paper;
  if (target <= compute) {
    return pad_residual(NasKnob{1, 0}, runtime(NasKnob{1, 0}), target);
  }

  // runtime(bytes) is monotone in bytes (more wire + copy work) but not
  // smooth (NIC queueing, rendezvous threshold), so bracket, bisect in log
  // space, then absorb the residual into the compute pad.
  std::int64_t lo = 1;
  double t_lo = runtime(NasKnob{lo, 0});
  if (t_lo >= target) return pad_residual(NasKnob{lo, 0}, t_lo, target);
  std::int64_t hi =
      std::max<std::int64_t>(4096, physical_exchange_bytes(spec) / 4);
  double t_hi = runtime(NasKnob{hi, 0});
  while (t_hi < target && hi < (1LL << 33)) {
    lo = hi;
    t_lo = t_hi;
    hi *= 4;
    t_hi = runtime(NasKnob{hi, 0});
  }
  for (int iter = 0; iter < 20 && hi - lo > 1; ++iter) {
    const auto mid = static_cast<std::int64_t>(
        std::sqrt(static_cast<double>(lo) * static_cast<double>(hi)));
    if (mid <= lo || mid >= hi) break;
    const double t_mid = runtime(NasKnob{mid, 0});
    if (std::abs(t_mid - target) <= 0.002 * target) {
      return pad_residual(NasKnob{mid, 0}, t_mid, target);
    }
    if (t_mid < target) {
      lo = mid;
      t_lo = t_mid;
    } else {
      hi = mid;
      t_hi = t_mid;
    }
  }
  // Prefer the under-shooting end so the pad stays non-negative.
  return pad_residual(NasKnob{lo, 0}, t_lo, target);
}

/// A table row in kPinnedKnobs' own syntax.
std::string table_row(const NasJobSpec& spec, const NasKnob& knob) {
  std::ostringstream os;
  os << "{k" << to_string(spec.bench) << ", k" << to_string(spec.cls) << ", "
     << spec.nodes << ", " << spec.ranks_per_node << ", {"
     << knob.exchange_bytes << ", " << knob.iter_pad_ns << "}},";
  return os.str();
}

void expect_rows_match_search(NasBenchmark bench) {
  int rows = 0;
  for (const NasPinnedKnob& row : nas_pinned_knobs()) {
    if (row.bench != bench) continue;
    ++rows;
    const NasJobSpec spec{row.bench, row.cls, row.nodes, row.ranks_per_node};
    const NasKnob searched = calibrate_uncached(spec);
    const std::string fix = "replace " + table_row(spec, row.knob) +
                            " with " + table_row(spec, searched);
    EXPECT_EQ(row.knob.exchange_bytes, searched.exchange_bytes) << fix;
    EXPECT_EQ(row.knob.iter_pad_ns, searched.iter_pad_ns) << fix;
  }
  EXPECT_GT(rows, 0);
}

TEST(NasCalibrationOracleTest, EpRowsMatchTheSearch) {
  expect_rows_match_search(NasBenchmark::kEP);
}

TEST(NasCalibrationOracleTest, BtRowsMatchTheSearch) {
  expect_rows_match_search(NasBenchmark::kBT);
}

TEST(NasCalibrationOracleTest, FtRowsMatchTheSearch) {
  expect_rows_match_search(NasBenchmark::kFT);
}

TEST(NasCalibrationOracleTest, RowsCoverExactlyThePaperBaselines) {
  // The CLI's whole NAS domain: every benchmark and class, 1-64 nodes, 1-8
  // ranks per node, HTT off and on. A cell has a paper baseline exactly
  // when the table has its row, and calibrate_nas_knob serves that row;
  // every other cell gets the analytic volume.
  int pinned_cells = 0;
  for (const auto bench :
       {NasBenchmark::kEP, NasBenchmark::kBT, NasBenchmark::kFT}) {
    for (const auto cls : {NasClass::kA, NasClass::kB, NasClass::kC}) {
      for (int nodes = 1; nodes <= 64; ++nodes) {
        for (int rpn = 1; rpn <= 8; ++rpn) {
          for (const bool htt : {false, true}) {
            const NasJobSpec spec{bench, cls, nodes, rpn, htt};
            const auto matches = [&](const NasPinnedKnob& row) {
              return row.bench == bench && row.cls == cls &&
                     row.nodes == nodes && row.ranks_per_node == rpn;
            };
            const auto rows = nas_pinned_knobs();
            const auto hit = std::find_if(rows.begin(), rows.end(), matches);
            const bool baseline = nas_paper_baseline(spec).has_value();
            ASSERT_EQ(std::count_if(rows.begin(), rows.end(), matches),
                      baseline ? 1 : 0)
                << table_row(spec, NasKnob{}) << " htt=" << htt;
            NasKnob expected;
            if (baseline) {
              expected = hit->knob;
              if (!htt) ++pinned_cells;
            } else if (bench != NasBenchmark::kEP) {
              expected.exchange_bytes =
                  std::max<std::int64_t>(64, physical_exchange_bytes(spec));
            }
            const NasKnob knob = calibrate_nas_knob(spec);
            EXPECT_EQ(knob.exchange_bytes, expected.exchange_bytes)
                << table_row(spec, knob) << " htt=" << htt;
            EXPECT_EQ(knob.iter_pad_ns, expected.iter_pad_ns)
                << table_row(spec, knob) << " htt=" << htt;
          }
        }
      }
    }
  }
  EXPECT_EQ(pinned_cells, 76);
  EXPECT_EQ(nas_pinned_knobs().size(), 76u);
}

}  // namespace
}  // namespace smilab
