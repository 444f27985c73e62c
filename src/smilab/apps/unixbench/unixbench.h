// UnixBench subset model (Section IV.C, Figure 2).
//
// The paper runs five UnixBench tests — Dhrystone, Whetstone, Pipe
// Throughput, Pipe-based Context Switching, System Call Overhead — and
// reports the total index score (geometric mean of per-test scores against
// the SPARCstation 20-61 baseline, x10) across CPU configurations and SMI
// gaps.
//
// Each test is modelled as copies of a fixed-ops batch workload with a
// per-test nominal rate and workload profile (HTT efficiency, refill
// behaviour). Rates are calibration constants for a Westmere-class core;
// the SMI response of the score is emergent from the simulation. Baseline
// divisors are the real UnixBench ones, so index magnitudes are in the
// familiar range. The batches are 1 ms Computes; when every copy owns a
// physical core (no HTT sibling online, no CPU shared), a copy runs them as
// one Compute plus a 1 ms tail, which finishes at the same nanosecond.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "smilab/cpu/workload_profile.h"
#include "smilab/smm/smi_config.h"
#include "smilab/time/sim_time.h"

namespace smilab {

enum class UbTest {
  kDhrystone = 0,
  kWhetstone,
  kPipeThroughput,
  kPipeContextSwitch,
  kSyscallOverhead,
};
inline constexpr int kUbTestCount = 5;

[[nodiscard]] const char* to_string(UbTest test);

struct UbTestSpec {
  UbTest test;
  /// Nominal single-copy rate on one dedicated E5620 core (ops/second).
  double base_ops_per_s;
  /// UnixBench index divisor for this test (SPARCstation 20-61 baseline).
  double baseline_ops_per_s;
  WorkloadProfile profile;
};

/// The five specs in UbTest order.
[[nodiscard]] const std::array<UbTestSpec, kUbTestCount>& ub_test_specs();

struct UnixBenchOptions {
  int online_cpus = 8;       ///< the sysfs sweep: 1-8 logical CPUs
  int copies = -1;           ///< -1: one copy per online CPU (UnixBench default)
  SimDuration per_test_duration = seconds(20);  ///< nominal measurement window
  SmiConfig smi{};
  /// Reaches the result only when SMIs fire: an SMI-free suite is the same
  /// for every seed.
  std::uint64_t seed = 1;
  /// Threads for the five independent tests (core/sweep.h): 1 runs them in
  /// order on the calling thread, <=0 means hardware concurrency. The
  /// result is bit-identical at any value.
  int jobs = 1;
};

struct UnixBenchResult {
  std::array<double, kUbTestCount> ops_per_s{};  ///< aggregate across copies
  std::array<double, kUbTestCount> score{};      ///< rate/baseline x 10
  double index = 0.0;                            ///< geometric mean of scores
};

/// Run the five-test suite on an E5620 node and compute the index. An
/// SMI-free suite is computed once per process for each (online CPUs,
/// copies, per-test duration) and shared by every later caller, whatever
/// its seed and jobs; concurrent first callers wait for a single
/// computation. Throws std::invalid_argument unless online_cpus is 1-8.
UnixBenchResult run_unixbench(const UnixBenchOptions& options);

/// SMI-free suites run_unixbench has computed in this process (first
/// callers for a shape, not memo lookups).
std::uint64_t unixbench_baselines_computed();

}  // namespace smilab
