#include "smilab/apps/unixbench/unixbench.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "smilab/core/single_flight.h"
#include "smilab/core/sweep.h"
#include "smilab/sim/system.h"

namespace smilab {

const char* to_string(UbTest test) {
  switch (test) {
    case UbTest::kDhrystone:
      return "Dhrystone 2";
    case UbTest::kWhetstone:
      return "Whetstone";
    case UbTest::kPipeThroughput:
      return "Pipe Throughput";
    case UbTest::kPipeContextSwitch:
      return "Pipe-based Context Switching";
    case UbTest::kSyscallOverhead:
      return "System Call Overhead";
  }
  return "?";
}

const std::array<UbTestSpec, kUbTestCount>& ub_test_specs() {
  // Rates: Westmere-era single-core UnixBench results; baselines: the
  // stock UnixBench SPARCstation divisors. String/integer work is cache
  // resident; Whetstone saturates the FP ports (no SMT gain, Leng et al.);
  // the kernel-interaction tests stall often enough for SMT to pay.
  static const std::array<UbTestSpec, kUbTestCount> specs = {{
      {UbTest::kDhrystone, 11.0e6, 116700.0, WorkloadProfile::cache_friendly()},
      {UbTest::kWhetstone, 2100.0, 55.0, WorkloadProfile::dense_fp()},
      {UbTest::kPipeThroughput, 1.05e6, 12440.0, WorkloadProfile::syscall_heavy()},
      {UbTest::kPipeContextSwitch, 2.6e5, 4000.0, WorkloadProfile::syscall_heavy()},
      {UbTest::kSyscallOverhead, 2.4e6, 15000.0, WorkloadProfile::syscall_heavy()},
  }};
  return specs;
}

namespace {

/// Run one test: `copies` tasks each executing a fixed op budget of ~1 ms
/// batches; aggregate rate = total ops / last finish. A copy that owns a
/// physical core runs its batches as one Compute plus a 1 ms tail.
double run_one_test(const UbTestSpec& spec, const UnixBenchOptions& options,
                    int copies) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::poweredge_r410_e5620();
  cfg.node_count = 1;
  cfg.smi = options.smi;
  cfg.seed = options.seed ^ (static_cast<std::uint64_t>(spec.test) << 32);
  System sys{cfg};
  sys.set_online_cpus(options.online_cpus);

  const SimDuration batch = milliseconds(1);
  const int batches = std::max(
      1, static_cast<int>(options.per_test_duration / batch));
  // Ops count the work simulated, not the requested window: a window that
  // is not a whole number of milliseconds runs `batches` whole batches.
  const double per_copy_ops =
      spec.base_ops_per_s * (batch * batches).seconds();

  // Logical CPU t*cores + c is thread t of core c, so with at most `cores`
  // CPUs online no HTT sibling is online, and with at most one copy per
  // CPU none is time-shared. A batch boundary is then unobservable, and
  // one Compute of the first batches - 1 batches plus a 1 ms tail finishes
  // at the same nanosecond as the batched run:
  // - the rate is exactly 1.0 (no tick cost, node_speed_sigma = 0, no
  //   fault model, no busy sibling), so settle and scale round nothing;
  // - an SMM freeze mid-run adds the same refill draw, in the same CPU
  //   order, whether it lands in work_left or in pending_overhead;
  // - the tail queues the last completion when the last batch would have
  //   begun, so a same-instant SMM entry still fires first, as it does in
  //   the batched run.
  // With an HTT sibling online, a busy sibling's batch boundary re-settles
  // the other sibling with rounding; with more copies than CPUs, context
  // switch charges land at batch starts. Both keep the batches.
  // UnixBenchFusedTest checks the fused run against the batched one.
  const bool owns_core = copies <= options.online_cpus &&
                         options.online_cpus <= cfg.machine.cores();

  for (int c = 0; c < copies; ++c) {
    TaskSpec task;
    task.name = std::string{to_string(spec.test)} + "#" + std::to_string(c);
    task.node = 0;
    task.profile = spec.profile;
    task.wait_policy = WaitPolicy::kBlock;
    if (owns_core) {
      std::vector<Action> run;
      if (batches > 1) run.emplace_back(Compute{batch * (batches - 1)});
      run.emplace_back(Compute{batch});
      task.actions = std::make_unique<VectorActions>(std::move(run));
    } else {
      // Every batch is the identical Compute, so the whole budget streams
      // from one prototype instead of a `batches`-long vector per copy.
      task.actions =
          std::make_unique<RepeatActions>(Action{Compute{batch}}, batches);
    }
    sys.spawn(std::move(task));
  }
  sys.run();
  const double elapsed = sys.last_finish_time().seconds();
  assert(elapsed > 0);
  return per_copy_ops * copies / elapsed;
}

/// The five tests, each an independent System, swept over options.jobs and
/// folded in test order into per-test rates, scores and the index.
UnixBenchResult run_suite(const UnixBenchOptions& options, int copies) {
  const std::vector<double> rates =
      ExperimentSweep{options.jobs}.map<double>(kUbTestCount, [&](int i) {
        return run_one_test(ub_test_specs()[static_cast<std::size_t>(i)],
                            options, copies);
      });
  UnixBenchResult result;
  double log_sum = 0.0;
  for (int i = 0; i < kUbTestCount; ++i) {
    const UbTestSpec& spec = ub_test_specs()[static_cast<std::size_t>(i)];
    const double rate = rates[static_cast<std::size_t>(i)];
    result.ops_per_s[static_cast<std::size_t>(i)] = rate;
    const double score = rate / spec.baseline_ops_per_s * 10.0;
    result.score[static_cast<std::size_t>(i)] = score;
    log_sum += std::log(score);
  }
  result.index = std::exp(log_sum / kUbTestCount);
  return result;
}

/// SMI-free suites by (online CPUs, copies, per-test duration in ns). The
/// seed is not part of the key because it cannot reach an SMI-free result:
/// - with no SMI there is no SMM exit, so no refill draw and no NIC
///   recovery draw;
/// - run_one_test's SystemConfig keeps node_speed_sigma = 0 and installs no
///   fault model, so no node-speed or link-fault draw;
/// - the constructor's htt_luck draw is read only on the refill path.
/// What remains is integer-ns scheduling of identical Compute batches, the
/// same for every seed (UnixBenchBaselineTest checks it for every test and
/// CPU count). An entry takes 224 B in three allocations (map node, future
/// state, 88 B result); serve's requests can create at most 8.
using BaselineMemo =
    SingleFlightMemo<std::tuple<int, int, std::int64_t>, UnixBenchResult>;

BaselineMemo& baselines() {
  static BaselineMemo memo;
  return memo;
}

}  // namespace

UnixBenchResult run_unixbench(const UnixBenchOptions& options) {
  // With no CPU online no copy runs and the rate divides by a zero finish
  // time; past 8, copies would time-share the E5620's eight CPUs.
  if (options.online_cpus < 1 || options.online_cpus > 8) {
    throw std::invalid_argument(
        "UnixBenchOptions::online_cpus must be in [1, 8], got " +
        std::to_string(options.online_cpus));
  }
  const int copies =
      options.copies > 0 ? options.copies : options.online_cpus;
  if (options.smi.enabled()) return run_suite(options, copies);
  return baselines().get(
      {options.online_cpus, copies, options.per_test_duration.ns()},
      [&] { return run_suite(options, copies); });
}

std::uint64_t unixbench_baselines_computed() {
  return baselines().computed();
}

}  // namespace smilab
