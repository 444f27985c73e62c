#include "smilab/apps/unixbench/unixbench.h"

#include <cassert>
#include <cmath>
#include <tuple>

#include "smilab/core/single_flight.h"
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

/// Run one test: `copies` tasks each executing a fixed op budget in ~1 ms
/// batches; aggregate rate = total ops / last finish.
double run_one_test(const UbTestSpec& spec, const UnixBenchOptions& options,
                    int copies) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::poweredge_r410_e5620();
  cfg.node_count = 1;
  cfg.os.tickless = true;
  cfg.smi = options.smi;
  cfg.seed = options.seed ^ (static_cast<std::uint64_t>(spec.test) << 32);
  System sys{cfg};
  sys.set_online_cpus(options.online_cpus);

  const double per_copy_ops =
      spec.base_ops_per_s * options.per_test_duration.seconds();
  const SimDuration batch = milliseconds(1);
  const int batches = std::max(
      1, static_cast<int>(options.per_test_duration / batch));

  for (int c = 0; c < copies; ++c) {
    TaskSpec task;
    task.name = std::string{to_string(spec.test)} + "#" + std::to_string(c);
    task.node = 0;
    task.profile = spec.profile;
    task.wait_policy = WaitPolicy::kBlock;
    // Every batch is the identical Compute, so the whole budget streams
    // from one prototype instead of a `batches`-long vector per copy.
    task.actions =
        std::make_unique<RepeatActions>(Action{Compute{batch}}, batches);
    sys.spawn(std::move(task));
  }
  sys.run();
  const double elapsed = sys.last_finish_time().seconds();
  assert(elapsed > 0);
  return per_copy_ops * copies / elapsed;
}

/// The five tests in order, folded into per-test rates, scores and the
/// index.
UnixBenchResult run_suite(const UnixBenchOptions& options, int copies) {
  UnixBenchResult result;
  double log_sum = 0.0;
  for (int i = 0; i < kUbTestCount; ++i) {
    const UbTestSpec& spec = ub_test_specs()[static_cast<std::size_t>(i)];
    const double rate = run_one_test(spec, options, copies);
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
  assert(options.online_cpus >= 1 && options.online_cpus <= 8);
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
