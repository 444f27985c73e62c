// SMM residency accounting: what the firmware knows, what the OS cannot see.
//
// Mirrors the observable counters on real hardware (MSR_SMI_COUNT, the
// driver's TSC-based residency measurement) and adds the ground truth only
// a simulator has, so the misattribution of SMM time by OS-level tools can
// be quantified exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "smilab/stats/histogram.h"
#include "smilab/stats/online_stats.h"
#include "smilab/time/sim_time.h"

namespace smilab {

/// One completed SMM interval on a node.
struct SmmInterval {
  int node = 0;
  SimTime enter;
  SimTime exit;
  [[nodiscard]] SimDuration duration() const { return exit - enter; }
};

/// Per-node and global SMM residency bookkeeping.
///
/// Every interval is retained (the trace renderers and the driver
/// characterization read the full list); the aggregate queries — counts,
/// residency, duration stats, BIOSBITS violations, the latency histogram —
/// accumulate online in record().
class SmmAccounting {
 public:
  explicit SmmAccounting(int node_count)
      : per_node_count_(static_cast<std::size_t>(node_count), 0),
        per_node_residency_(static_cast<std::size_t>(node_count),
                            SimDuration::zero()) {}

  void record(const SmmInterval& interval) {
    total_ += 1;
    per_node_count_[static_cast<std::size_t>(interval.node)] += 1;
    per_node_residency_[static_cast<std::size_t>(interval.node)] +=
        interval.duration();
    duration_stats_.add(interval.duration().seconds());
    biosbits_count_ += interval.duration() > kBiosbitsThreshold ? 1 : 0;
    hist_ms_.add(interval.duration().seconds() * 1e3);
    intervals_.push_back(interval);
  }

  /// MSR_SMI_COUNT equivalent for one node.
  [[nodiscard]] std::int64_t smi_count(int node) const {
    return per_node_count_.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] SimDuration residency(int node) const {
    return per_node_residency_.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] std::int64_t total_smi_count() const { return total_; }
  /// Every interval recorded so far.
  [[nodiscard]] const std::vector<SmmInterval>& intervals() const {
    return intervals_;
  }
  [[nodiscard]] const OnlineStats& duration_stats() const {
    return duration_stats_;
  }

  /// BIOSBITS warns when any single SMM interval exceeds 150 us [15].
  /// Returns the number of violating intervals.
  [[nodiscard]] std::int64_t biosbits_violations() const {
    return biosbits_count_;
  }

  /// Latency histogram in milliseconds (for the driver characterization).
  [[nodiscard]] const Histogram& duration_histogram_ms() const {
    return hist_ms_;
  }

  static constexpr SimDuration kBiosbitsThreshold = microseconds(150);
  static constexpr double kHistHiMs = 120.0;

 private:
  std::vector<SmmInterval> intervals_;
  std::int64_t total_ = 0;
  std::int64_t biosbits_count_ = 0;
  std::vector<std::int64_t> per_node_count_;
  std::vector<SimDuration> per_node_residency_;
  OnlineStats duration_stats_;
  Histogram hist_ms_{0.0, kHistHiMs, 120};
};

}  // namespace smilab
