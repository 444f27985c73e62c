// Simulator workload model for the Convolve study (Figure 1).
//
// The measured cache behaviour (access_stream.h) turns the convolution into
// per-thread work: refs x avg-latency-per-ref / clock. The experiment spawns
// the paper's 24 threads over 1-8 online logical CPUs and injects long SMIs
// at a configurable gap; execution time falls out of the simulation.
#pragma once

#include <cstdint>

#include "smilab/apps/convolve/access_stream.h"
#include "smilab/cpu/workload_profile.h"
#include "smilab/smm/smi_config.h"
#include "smilab/time/sim_time.h"

namespace smilab {

struct ConvolveWorkload {
  ConvolveConfig config;
  CacheMeasurement cache;   ///< the hierarchy model's pinned measurement
  WorkloadProfile profile;  ///< HTT/refill behaviour derived from the miss profile
  int threads = 24;         ///< the paper limits Convolve to 24 threads
  int repeats = 1;          ///< passes over the image (extends the run)

  /// Total compute demand across all threads, in seconds of one nominal core.
  [[nodiscard]] double total_work_seconds(double ghz) const {
    return static_cast<double>(config.total_refs()) * cache.avg_latency_cycles /
           (ghz * 1e9) * repeats;
  }

  /// The paper's two configurations with their measured cache behaviour.
  /// `repeats` chosen so a single-CPU run takes tens of seconds, long
  /// enough to average several SMI periods at every swept gap.
  static ConvolveWorkload cache_friendly_workload();
  static ConvolveWorkload cache_unfriendly_workload();
};

struct ConvolveRunResult {
  double seconds = 0.0;           ///< wall time of the threaded region
  double smm_stolen_seconds = 0.0;
  std::int64_t smi_hits = 0;
};

/// Run the workload on an E5620 node with `online_cpus` logical CPUs (the
/// paper's sysfs sweep: 1-4 = physical cores, 5-8 add HTT siblings) under
/// the given SMI regime. An SMI-free run is computed once per process for
/// each (online CPUs, threads, total work, HTT efficiency) and shared by
/// every later caller, whatever its seed; concurrent first callers wait
/// for a single computation.
ConvolveRunResult run_convolve_sim(const ConvolveWorkload& workload,
                                   int online_cpus, const SmiConfig& smi,
                                   std::uint64_t seed);

/// SMI-free runs run_convolve_sim has computed in this process (first
/// callers for a shape, not memo lookups).
std::uint64_t convolve_baselines_computed();

}  // namespace smilab
