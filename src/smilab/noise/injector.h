// Generic OS-level noise injector (Ferreira-style kernel noise injection
// [24]) and the attribution analyzer.
//
// The injector periodically preempts ONE logical CPU per node for a fixed
// duration — a daemon wakeup, an interrupt storm, a kernel thread. The
// contrast with SmiController is the paper's central point: an SMI stops
// every CPU and the NIC; OS noise of identical duty cycle does not, so a
// multithreaded or MPI application can absorb it. The ablation bench
// quantifies the difference.
#pragma once

#include "smilab/sim/system.h"
#include "smilab/time/rng.h"

namespace smilab {

struct OsNoiseConfig {
  SimDuration duration = milliseconds(105);  ///< per event (match long SMIs)
  SimDuration interval = seconds(1);         ///< between events, per node
  int cpu = 0;                               ///< node-local victim CPU
  bool rotate_cpus = false;                  ///< round-robin the victim
  SimDuration fixed_initial_phase = SimDuration{-1};
};

/// Periodic single-CPU preemption on every node of the system. Construct
/// after System; lives as long as the run.
class OsNoiseInjector {
 public:
  OsNoiseInjector(System& sys, OsNoiseConfig config);

  [[nodiscard]] std::int64_t events() const { return events_; }

 private:
  void arm(int node, SimDuration delay);
  void fire(int node);

  System& sys_;
  OsNoiseConfig config_;
  std::vector<Rng> node_rng_;
  std::vector<int> next_cpu_;
  /// held_[node][cpu]: this injector's preemption of the CPU has not ended.
  std::vector<std::vector<bool>> held_;
  std::int64_t events_ = 0;
};

/// Quantifies what a /proc-based profiler would get wrong about a task:
/// SMM time silently charged to it.
struct AttributionReport {
  SimDuration os_view{};
  SimDuration true_time{};
  SimDuration misattributed{};
  double misattribution_fraction = 0.0;  ///< of the OS-view CPU time

  static AttributionReport from(const TaskStats& stats) {
    AttributionReport report;
    report.os_view = stats.os_view_cpu_time;
    report.true_time = stats.true_cpu_time;
    report.misattributed = stats.os_view_cpu_time - stats.true_cpu_time;
    if (stats.os_view_cpu_time > SimDuration::zero()) {
      report.misattribution_fraction =
          report.misattributed / report.os_view;
    }
    return report;
  }
};

}  // namespace smilab
