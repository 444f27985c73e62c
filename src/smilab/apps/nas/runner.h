// NAS cell execution: the communication knob calibrated against the
// paper's SMM-0 baseline, then multi-trial runs under each SMI regime.
//
// Calibration contract (see DESIGN.md): per-class compute volume and the
// paper's no-SMI baselines are inputs; everything the tables report under
// SMM 1/2 (the deltas) is produced by the simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "smilab/apps/nas/nas.h"
#include "smilab/mpi/job.h"
#include "smilab/smm/smi_config.h"
#include "smilab/stats/online_stats.h"

namespace smilab {

struct NasRunOptions {
  int trials = 6;                  ///< the paper averaged six runs
  double node_speed_sigma = 0.003; ///< non-SMI run-to-run system noise
  std::uint64_t seed = 2016;
  bool synchronized_smis = false;  ///< ablation knob
  /// Worker threads for independent (regime, trial) sims inside a cell
  /// (and for whole cells in the table builders). 1 = historical serial
  /// path; <=0 = hardware concurrency. Results are byte-identical at any
  /// value: every sim derives from (spec, knob, smi, seed) alone and is
  /// collected in grid order (core/sweep.h).
  int jobs = 1;
};

struct NasCellResult {
  NasJobSpec spec;
  std::optional<double> paper_baseline_s;
  NasKnob knob;  ///< calibrated exchange bytes + compute pad
  OnlineStats smm0;       ///< measured seconds, no SMIs
  OnlineStats smm1;       ///< short SMIs @ 1/s
  OnlineStats smm2;       ///< long SMIs @ 1/s

  [[nodiscard]] const OnlineStats& by_kind(SmiKind kind) const {
    switch (kind) {
      case SmiKind::kNone:
        return smm0;
      case SmiKind::kShort:
        return smm1;
      case SmiKind::kLong:
        return smm2;
    }
    return smm0;
  }
};

/// Simulate one run of a cell under the given calibrated knobs, streaming
/// the rank programs (make_nas_rank_sources).
double simulate_nas_once(const NasJobSpec& spec, const NasKnob& knob,
                         const SmiConfig& smi, std::uint64_t seed,
                         double node_speed_sigma);

/// One row of the pinned calibration table: the knob fitted for the HTT-off
/// cell (bench, cls, nodes, ranks_per_node).
struct NasPinnedKnob {
  NasBenchmark bench;
  NasClass cls;
  int nodes;
  int ranks_per_node;
  NasKnob knob;
};

/// The pinned table: one row per cell with a paper baseline. Each knob was
/// fitted once, offline, so the simulated no-SMI runtime (seed 1, no node-
/// speed spread) matches the baseline: bracketed bisection on the exchange
/// size, then a per-iteration compute pad for the residual. That search is
/// kept as the table's oracle: NasCalibrationOracleTest re-runs it per row.
std::span<const NasPinnedKnob> nas_pinned_knobs();

/// The knob for a cell: its pinned row when the paper reports the HTT-off
/// cell (HTT does not change the no-SMI runtime, so both HTT variants share
/// a row). Other cells get the model's own analytic volume: EP {0, 0}; BT
/// and FT max(64, physical_exchange_bytes) with no pad. Never simulates.
NasKnob calibrate_nas_knob(const NasJobSpec& spec);

/// The physical per-message exchange volume of a cell: a BT subdomain face,
/// or FT's per-pair transpose share; 0 for EP.
std::int64_t physical_exchange_bytes(const NasJobSpec& spec);

/// Look up the knob and measure a cell under SMM 0/1/2.
NasCellResult run_nas_cell(const NasJobSpec& spec, const NasRunOptions& options);

}  // namespace smilab
