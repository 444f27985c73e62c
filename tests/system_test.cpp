// Integration-level tests of the System runtime: compute progress, HTT
// sharing, scheduling, SMM freezes, accounting, and messaging semantics.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "smilab/sim/system.h"
#include "smilab/smm/smi_controller.h"

namespace smilab {
namespace {

SystemConfig base_config(int nodes = 1) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::poweredge_r410_e5620();
  cfg.node_count = nodes;
  cfg.seed = 42;
  return cfg;
}

std::vector<Action> compute_only(SimDuration work) {
  std::vector<Action> actions;
  actions.push_back(Compute{work});
  return actions;
}

double wall_seconds(const TaskStats& s) {
  return (s.end_time - s.start_time).seconds();
}

TEST(SystemComputeTest, SingleTaskRunsAtNominalSpeed) {
  System sys{base_config()};
  const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, compute_only(seconds(5))));
  sys.run();
  const auto& stats = sys.task_stats(id);
  EXPECT_TRUE(stats.finished);
  EXPECT_NEAR(wall_seconds(stats), 5.0, 1e-6);
  EXPECT_NEAR(stats.true_cpu_time.seconds(), 5.0, 1e-6);
  EXPECT_NEAR(stats.os_view_cpu_time.seconds(), 5.0, 1e-6);
  EXPECT_EQ(stats.smm_hits, 0);
}

TEST(SystemComputeTest, TasksOnSeparateCoresDoNotInterfere) {
  System sys{base_config()};
  std::vector<TaskId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(sys.spawn(TaskSpec::with_actions("t" + std::to_string(i), 0,
                                                   compute_only(seconds(3)))));
  }
  sys.run();
  for (const TaskId id : ids) {
    EXPECT_NEAR(wall_seconds(sys.task_stats(id)), 3.0, 1e-6);
  }
}

TEST(SystemComputeTest, PlacementFillsPhysicalCoresFirst) {
  // 4 tasks on a 4-core/8-thread node must each get their own core: no HTT
  // slowdown, so all finish in nominal time even with htt_efficiency 0.5.
  System sys{base_config()};
  WorkloadProfile profile;
  profile.htt_efficiency = 0.5;
  std::vector<TaskId> ids;
  for (int i = 0; i < 4; ++i) {
    TaskSpec spec = TaskSpec::with_actions("t", 0, compute_only(seconds(1)));
    spec.profile = profile;
    ids.push_back(sys.spawn(std::move(spec)));
  }
  sys.run();
  for (const TaskId id : ids) {
    EXPECT_NEAR(wall_seconds(sys.task_stats(id)), 1.0, 1e-6);
  }
}

TEST(SystemHttTest, SiblingsShareACore) {
  // Pin two tasks on HTT siblings (CPU 0 and CPU 4 share core 0): with
  // htt_efficiency = 0.5, each runs at half speed -> 2x wall time.
  System sys{base_config()};
  WorkloadProfile profile;
  profile.htt_efficiency = 0.5;
  std::vector<TaskId> ids;
  for (const int cpu : {0, 4}) {
    TaskSpec spec = TaskSpec::with_actions("t", 0, compute_only(seconds(1)));
    spec.profile = profile;
    spec.pinned_cpu = cpu;
    ids.push_back(sys.spawn(std::move(spec)));
  }
  sys.run();
  for (const TaskId id : ids) {
    EXPECT_NEAR(wall_seconds(sys.task_stats(id)), 2.0, 1e-5);
  }
}

TEST(SystemHttTest, EfficiencyAboveHalfGivesAggregateSpeedup) {
  System sys{base_config()};
  WorkloadProfile profile;
  profile.htt_efficiency = 0.65;  // combined throughput 1.3x
  std::vector<TaskId> ids;
  for (const int cpu : {0, 4}) {
    TaskSpec spec = TaskSpec::with_actions("t", 0, compute_only(seconds(1)));
    spec.profile = profile;
    spec.pinned_cpu = cpu;
    ids.push_back(sys.spawn(std::move(spec)));
  }
  sys.run();
  for (const TaskId id : ids) {
    EXPECT_NEAR(wall_seconds(sys.task_stats(id)), 1.0 / 0.65, 1e-5);
  }
}

TEST(SystemHttTest, RateRecoversWhenSiblingFinishes) {
  // Unequal work: after the short task ends, the long task speeds back up.
  // Short: 0.5s of work at rate 0.5 -> done at t=1.0. Long task has then
  // completed 0.5s of its 1.5s and finishes the rest at full rate:
  // total = 1.0 + 1.0 = 2.0s.
  System sys{base_config()};
  WorkloadProfile profile;
  profile.htt_efficiency = 0.5;
  TaskSpec short_spec = TaskSpec::with_actions("short", 0, compute_only(seconds_d(0.5)));
  short_spec.profile = profile;
  short_spec.pinned_cpu = 0;
  TaskSpec long_spec = TaskSpec::with_actions("long", 0, compute_only(seconds_d(1.5)));
  long_spec.profile = profile;
  long_spec.pinned_cpu = 4;
  const TaskId short_id = sys.spawn(std::move(short_spec));
  const TaskId long_id = sys.spawn(std::move(long_spec));
  sys.run();
  EXPECT_NEAR(wall_seconds(sys.task_stats(short_id)), 1.0, 1e-5);
  EXPECT_NEAR(wall_seconds(sys.task_stats(long_id)), 2.0, 1e-5);
}

TEST(SystemHttTest, FullHttNodeKeepsCpuInvariants) {
  // validate() with HTT on: 8 CPUs online and 8 unplaced tasks, which fill
  // the four cores first (CPUs 0-3) and then their siblings (CPUs 4-7), so
  // both threads of every core are busy. validate() checks each CPU's
  // cached sibling against the topology while every CPU runs, and again
  // after the run. The finish times show the rate path saw the siblings:
  // 0.5 s at half speed ends at 1 s, after which the 1.5 s tasks finish
  // their last second alone.
  System sys{base_config()};
  sys.set_online_cpus(8);
  ASSERT_TRUE(sys.node_htt_active(0));
  WorkloadProfile profile;
  profile.htt_efficiency = 0.5;
  std::vector<TaskId> ids;
  for (int i = 0; i < 8; ++i) {
    TaskSpec spec = TaskSpec::with_actions(
        "t" + std::to_string(i), 0,
        compute_only(seconds_d(i < 4 ? 0.5 : 1.5)));
    spec.profile = profile;
    ids.push_back(sys.spawn(std::move(spec)));
  }
  sys.run_for(milliseconds(500));
  sys.validate();
  sys.run();
  sys.validate();
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(wall_seconds(sys.task_stats(ids[static_cast<std::size_t>(i)])),
                i < 4 ? 1.0 : 2.0, 1e-5)
        << "task " << i;
  }
}

TEST(SystemSchedulerTest, OversubscriptionTimeshares) {
  // Two equal tasks pinned to one CPU: each takes ~2x its solo time and
  // they finish within one quantum of each other.
  SystemConfig cfg = base_config();
  cfg.os.context_switch = SimDuration::zero();  // isolate timesharing
  System sys{cfg};
  std::vector<TaskId> ids;
  for (int i = 0; i < 2; ++i) {
    TaskSpec spec = TaskSpec::with_actions("t", 0, compute_only(seconds(1)));
    spec.pinned_cpu = 0;
    ids.push_back(sys.spawn(std::move(spec)));
  }
  sys.run();
  const double w0 = wall_seconds(sys.task_stats(ids[0]));
  const double w1 = wall_seconds(sys.task_stats(ids[1]));
  EXPECT_NEAR(w0 + w1, 4.0, 0.05);  // total CPU demand 2s, each waits ~1s
  EXPECT_LE(std::abs(w0 - w1), cfg.os.quantum.seconds() + 1e-9);
  EXPECT_NEAR(sys.task_stats(ids[0]).true_cpu_time.seconds(), 1.0, 1e-6);
}

TEST(SystemSchedulerTest, ContextSwitchesCostTime) {
  SystemConfig with_cs = base_config();
  with_cs.os.context_switch = microseconds(50);
  SystemConfig no_cs = base_config();
  no_cs.os.context_switch = SimDuration::zero();

  auto run_pair = [](SystemConfig cfg) {
    System sys{cfg};
    for (int i = 0; i < 2; ++i) {
      TaskSpec spec;
      spec.name = "t";
      spec.node = 0;
      spec.pinned_cpu = 0;
      std::vector<Action> prog;
      prog.push_back(Compute{seconds(1)});
      spec.actions = std::make_unique<VectorActions>(std::move(prog));
      sys.spawn(std::move(spec));
    }
    sys.run();
    return sys.last_finish_time().seconds();
  };

  EXPECT_GT(run_pair(with_cs), run_pair(no_cs));
}

TEST(SystemSmmTest, LongSmiStealsDutyCycleFraction) {
  // 105 ms mean residency per 1000 ms -> ~10.5% duty cycle.
  SystemConfig cfg = base_config();
  cfg.smi = SmiConfig::long_every_second();
  cfg.machine.hot_set_bytes = 0;  // isolate the pure freeze effect
  System sys{cfg};
  const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, compute_only(seconds(20))));
  sys.run();
  const auto& stats = sys.task_stats(id);
  const double wall = wall_seconds(stats);
  EXPECT_NEAR(wall, 20.0 * 1.105, 0.35);
  EXPECT_GT(stats.smm_hits, 15);
  // Invariant: wall = true cpu + stolen (single task, no waiting).
  EXPECT_NEAR(wall,
              stats.true_cpu_time.seconds() + stats.smm_stolen_time.seconds(),
              1e-6);
  // The OS view misattributes the frozen time to the task.
  EXPECT_NEAR(stats.os_view_cpu_time.seconds(), wall, 1e-6);
}

TEST(SystemSmmTest, ShortSmiHasSmallEffect) {
  SystemConfig cfg = base_config();
  cfg.smi = SmiConfig::short_every_second();
  System sys{cfg};
  const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, compute_only(seconds(20))));
  sys.run();
  const double wall = wall_seconds(sys.task_stats(id));
  EXPECT_LT(wall, 20.0 * 1.01);  // well under 1% including refill
  EXPECT_GT(wall, 20.0);
}

TEST(SystemSmmTest, FreezeHaltsAllCpusOfTheNode) {
  // Tasks on different cores of the same node are all stretched.
  SystemConfig cfg = base_config();
  cfg.smi = SmiConfig::long_every_second();
  cfg.machine.hot_set_bytes = 0;
  System sys{cfg};
  std::vector<TaskId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(sys.spawn(TaskSpec::with_actions("t", 0, compute_only(seconds(10)))));
  }
  sys.run();
  for (const TaskId id : ids) {
    EXPECT_GT(wall_seconds(sys.task_stats(id)), 10.5);
    EXPECT_GT(sys.task_stats(id).smm_hits, 5);
  }
}

TEST(SystemSmmTest, OtherNodesKeepRunning) {
  // Independent per-node SMI phases: node 1's task is stretched by its own
  // SMIs only; with SMIs enabled the accounting shows both nodes hit.
  SystemConfig cfg = base_config(2);
  cfg.smi = SmiConfig::long_every_second();
  cfg.machine.hot_set_bytes = 0;
  System sys{cfg};
  const TaskId a = sys.spawn(TaskSpec::with_actions("a", 0, compute_only(seconds(10))));
  const TaskId b = sys.spawn(TaskSpec::with_actions("b", 1, compute_only(seconds(10))));
  sys.run();
  EXPECT_GT(sys.smm_accounting().smi_count(0), 0);
  EXPECT_GT(sys.smm_accounting().smi_count(1), 0);
  EXPECT_GT(wall_seconds(sys.task_stats(a)), 10.0);
  EXPECT_GT(wall_seconds(sys.task_stats(b)), 10.0);
}

TEST(SystemSmmTest, RefillPenaltyAddsOverhead) {
  SystemConfig no_refill = base_config();
  no_refill.smi = SmiConfig::long_every_second();
  no_refill.smi.fixed_initial_phase = milliseconds(500);
  no_refill.machine.hot_set_bytes = 0;

  SystemConfig with_refill = no_refill;
  with_refill.machine.hot_set_bytes = 4e6;

  auto run_one = [](SystemConfig cfg) {
    System sys{cfg};
    const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, compute_only(seconds(20))));
    sys.run();
    return sys.task_stats(id);
  };
  const TaskStats plain = run_one(no_refill);
  const TaskStats refilled = run_one(with_refill);
  EXPECT_EQ(plain.refill_overhead, SimDuration::zero());
  EXPECT_GT(refilled.refill_overhead, SimDuration::zero());
  EXPECT_GT(wall_seconds(refilled), wall_seconds(plain));
}

TEST(SystemSmmTest, SynchronizedModeFreezesNodesTogether) {
  SystemConfig cfg = base_config(4);
  cfg.smi = SmiConfig::long_every_second();
  cfg.smi.synchronized_across_nodes = true;
  cfg.machine.hot_set_bytes = 0;
  System sys{cfg};
  for (int n = 0; n < 4; ++n) {
    sys.spawn(TaskSpec::with_actions("t", n, compute_only(seconds(5))));
  }
  sys.run();
  const auto& intervals = sys.smm_accounting().intervals();
  ASSERT_GE(intervals.size(), 8u);
  // Intervals come in groups of 4 with identical enter/exit times.
  for (std::size_t i = 0; i + 3 < intervals.size(); i += 4) {
    for (int k = 1; k < 4; ++k) {
      EXPECT_EQ(intervals[i].enter, intervals[i + static_cast<std::size_t>(k)].enter);
      EXPECT_EQ(intervals[i].exit, intervals[i + static_cast<std::size_t>(k)].exit);
    }
  }
}

TEST(SystemMessagingTest, EagerSendRecvDeliversWithLatency) {
  System sys{base_config(2)};
  const GroupId g = sys.create_group(2);

  std::vector<Action> sender;
  sender.push_back(Compute{milliseconds(10)});
  sender.push_back(Send{1, 1024, 7});
  std::vector<Action> receiver;
  receiver.push_back(Recv{0, 7});

  TaskSpec s0 = TaskSpec::with_actions("s", 0, std::move(sender));
  TaskSpec s1 = TaskSpec::with_actions("r", 1, std::move(receiver));
  sys.spawn_member(g, 0, std::move(s0));
  const TaskId rid = sys.spawn_member(g, 1, std::move(s1));
  sys.run();
  const auto& stats = sys.task_stats(rid);
  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(stats.messages_received, 1);
  // Receiver can't finish before the sender's 10ms compute plus wire time.
  EXPECT_GT(wall_seconds(stats), 0.010);
  EXPECT_LT(wall_seconds(stats), 0.012);
}

TEST(SystemMessagingTest, RendezvousSenderWaitsForReceiver) {
  // Large message: the sender must not complete until the receiver has
  // drained it (ack). Receiver delays 50ms before posting its recv.
  System sys{base_config(2)};
  const GroupId g = sys.create_group(2);
  const std::int64_t big = 1 << 20;

  std::vector<Action> sender;
  sender.push_back(Send{1, big, 9});
  std::vector<Action> receiver;
  receiver.push_back(Compute{milliseconds(50)});
  receiver.push_back(Recv{0, 9});

  const TaskId sid = sys.spawn_member(g, 0, TaskSpec::with_actions("s", 0, std::move(sender)));
  sys.spawn_member(g, 1, TaskSpec::with_actions("r", 1, std::move(receiver)));
  sys.run();
  EXPECT_GT(wall_seconds(sys.task_stats(sid)), 0.050);
}

TEST(SystemMessagingTest, SendRecvPairExchanges) {
  System sys{base_config(2)};
  const GroupId g = sys.create_group(2);
  for (int r = 0; r < 2; ++r) {
    std::vector<Action> prog;
    prog.push_back(SendRecv{1 - r, 4096, 5, 1 - r, 5});
    prog.push_back(Compute{milliseconds(1)});
    sys.spawn_member(g, r, TaskSpec::with_actions("x", r, std::move(prog)));
  }
  sys.run();
  for (int r = 0; r < 2; ++r) {
    SUCCEED();  // completion without deadlock is the property under test
  }
  EXPECT_TRUE(sys.all_finished());
}

TEST(SystemMessagingTest, LargeSendRecvPairDoesNotDeadlock) {
  // Rendezvous-sized sendrecv in both directions: the composite action must
  // progress both halves concurrently.
  System sys{base_config(2)};
  const GroupId g = sys.create_group(2);
  for (int r = 0; r < 2; ++r) {
    std::vector<Action> prog;
    prog.push_back(SendRecv{1 - r, 1 << 22, 5, 1 - r, 5});
    sys.spawn_member(g, r, TaskSpec::with_actions("x", r, std::move(prog)));
  }
  sys.run();
  EXPECT_TRUE(sys.all_finished());
}

TEST(SystemMessagingTest, MessagesMatchInFifoOrderPerTag) {
  System sys{base_config(1)};
  const GroupId g = sys.create_group(2);
  std::vector<Action> sender;
  for (int i = 0; i < 3; ++i) sender.push_back(Send{1, 256, 4});
  std::vector<Action> receiver;
  for (int i = 0; i < 3; ++i) receiver.push_back(Recv{0, 4});
  sys.spawn_member(g, 0, TaskSpec::with_actions("s", 0, std::move(sender)));
  const TaskId rid = sys.spawn_member(g, 1, TaskSpec::with_actions("r", 0, std::move(receiver)));
  sys.run();
  EXPECT_EQ(sys.task_stats(rid).messages_received, 3);
}

TEST(SystemMessagingTest, BlockedReceiverYieldsCpu) {
  // Receiver (kBlock) shares a CPU with a compute task; while waiting for a
  // late message the compute task should make full progress.
  System sys{base_config(1)};
  const GroupId g = sys.create_group(2);

  std::vector<Action> sender;
  sender.push_back(Compute{milliseconds(100)});
  sender.push_back(Send{1, 64, 2});
  TaskSpec s0 = TaskSpec::with_actions("s", 0, std::move(sender));
  s0.pinned_cpu = 1;
  sys.spawn_member(g, 0, std::move(s0));

  std::vector<Action> receiver;
  receiver.push_back(Recv{0, 2});
  TaskSpec s1 = TaskSpec::with_actions("r", 0, std::move(receiver));
  s1.pinned_cpu = 0;
  s1.wait_policy = WaitPolicy::kBlock;
  sys.spawn_member(g, 1, std::move(s1));

  TaskSpec other = TaskSpec::with_actions("bg", 0, compute_only(milliseconds(50)));
  other.pinned_cpu = 0;
  const TaskId bg = sys.spawn(std::move(other));

  sys.run();
  // The background task gets the CPU while the receiver blocks: finishes in
  // ~50ms (+ scheduling overhead), far before the 100ms message.
  EXPECT_LT(wall_seconds(sys.task_stats(bg)), 0.06);
}

TEST(SystemMessagingTest, SpinningReceiverHoldsCpu) {
  // Same setup but spinning: the background task now timeshares with the
  // spinning receiver and takes roughly twice as long.
  System sys{base_config(1)};
  const GroupId g = sys.create_group(2);

  std::vector<Action> sender;
  sender.push_back(Compute{milliseconds(100)});
  sender.push_back(Send{1, 64, 2});
  TaskSpec s0 = TaskSpec::with_actions("s", 0, std::move(sender));
  s0.pinned_cpu = 1;
  sys.spawn_member(g, 0, std::move(s0));

  std::vector<Action> receiver;
  receiver.push_back(Recv{0, 2});
  TaskSpec s1 = TaskSpec::with_actions("r", 0, std::move(receiver));
  s1.pinned_cpu = 0;
  s1.wait_policy = WaitPolicy::kSpin;
  sys.spawn_member(g, 1, std::move(s1));

  TaskSpec other = TaskSpec::with_actions("bg", 0, compute_only(milliseconds(50)));
  other.pinned_cpu = 0;
  const TaskId bg = sys.spawn(std::move(other));

  sys.run();
  EXPECT_GT(wall_seconds(sys.task_stats(bg)), 0.09);
}

TEST(SystemSleepTest, SleepWakesOnTime) {
  System sys{base_config()};
  std::vector<Action> prog;
  prog.push_back(Sleep{milliseconds(25)});
  prog.push_back(Compute{milliseconds(5)});
  const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, std::move(prog)));
  sys.run();
  EXPECT_NEAR(wall_seconds(sys.task_stats(id)), 0.030, 1e-6);
}

TEST(SystemSleepTest, TimerWakeDeferredBySmm) {
  // A sleep that expires mid-SMM is serviced only at SMM exit: SMIs defer
  // even timer interrupts, unlike ordinary IRQ handling.
  SystemConfig cfg = base_config();
  cfg.smi = SmiConfig::long_every_second();
  cfg.smi.fixed_initial_phase = milliseconds(100);  // SMM [100, ~205]ms
  cfg.machine.hot_set_bytes = 0;
  System sys{cfg};
  std::vector<Action> prog;
  prog.push_back(Sleep{milliseconds(150)});  // expires inside the SMM window
  const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, std::move(prog)));
  sys.run();
  EXPECT_GT(wall_seconds(sys.task_stats(id)), 0.200);  // waited for SMM exit
}

TEST(SystemRunTest, DeadlockIsDetected) {
  System sys{base_config()};
  const GroupId g = sys.create_group(2);
  for (int r = 0; r < 2; ++r) {
    std::vector<Action> prog;
    prog.push_back(Recv{1 - r, 1});  // both wait forever
    sys.spawn_member(g, r, TaskSpec::with_actions("d", 0, std::move(prog)));
  }
  EXPECT_THROW(sys.run(), std::runtime_error);
}

TEST(SystemRunTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    SystemConfig cfg;
    cfg.machine = MachineSpec::wyeast_e5520();
    cfg.node_count = 2;
    cfg.smi = SmiConfig::long_every_second();
    cfg.seed = 123;
    System sys{cfg};
    const GroupId g = sys.create_group(2);
    for (int r = 0; r < 2; ++r) {
      std::vector<Action> prog;
      prog.push_back(Compute{seconds(2)});
      prog.push_back(SendRecv{1 - r, 1 << 16, 3, 1 - r, 3});
      prog.push_back(Compute{seconds(1)});
      sys.spawn_member(g, r, TaskSpec::with_actions("t", r, std::move(prog)));
    }
    sys.run();
    return sys.group_finish_time(g).ns();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SystemRunTest, DifferentSeedsShiftSmiPhases) {
  auto run_once = [](std::uint64_t seed) {
    SystemConfig cfg;
    cfg.machine = MachineSpec::wyeast_e5520();
    cfg.smi = SmiConfig::long_every_second();
    cfg.seed = seed;
    System sys{cfg};
    const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, compute_only(seconds(3))));
    sys.run();
    return (sys.task_stats(id).end_time - SimTime::zero()).ns();
  };
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(SystemTopologyTest, OnlineCpuSweepLimitsPlacement) {
  SystemConfig cfg = base_config();
  System sys{cfg};
  sys.set_online_cpus(2);
  // 4 tasks on 2 online CPUs must timeshare: total wall ~2x solo.
  std::vector<TaskId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(sys.spawn(TaskSpec::with_actions("t", 0, compute_only(seconds(1)))));
  }
  sys.run();
  EXPECT_GE(sys.last_finish_time().seconds(), 2.0 - 1e-6);
}

TEST(SystemTopologyTest, SpawnRejectsNodeOrCpuOutsideTheCluster) {
  // The node and pinned CPU come from the caller; the System indexes its
  // per-node and per-CPU state without a check after spawn, so spawn
  // refuses them up front and the run still works afterwards.
  System sys{base_config()};
  TaskSpec off_cluster = TaskSpec::with_actions("n", 1, compute_only(seconds(1)));
  EXPECT_THROW(sys.spawn(std::move(off_cluster)), std::out_of_range);
  TaskSpec off_node = TaskSpec::with_actions("c", 0, compute_only(seconds(1)));
  off_node.pinned_cpu = 8;  // the E5620 node has CPUs 0-7
  EXPECT_THROW(sys.spawn(std::move(off_node)), std::out_of_range);
  EXPECT_EQ(sys.task_count(), 0);
  const TaskId ok = sys.spawn(TaskSpec::with_actions("ok", 0, compute_only(seconds(1))));
  sys.run();
  EXPECT_TRUE(sys.task_stats(ok).finished);
  sys.validate();
}

TEST(SystemTopologyTest, GroupFinishTimeIsMaxOverRanks) {
  System sys{base_config()};
  const GroupId g = sys.create_group(2);
  sys.spawn_member(g, 0, TaskSpec::with_actions("fast", 0, compute_only(seconds(1))));
  sys.spawn_member(g, 1, TaskSpec::with_actions("slow", 0, compute_only(seconds(2))));
  sys.run();
  EXPECT_NEAR(sys.group_finish_time(g).seconds(), 2.0, 1e-6);
}

TEST(SystemNoiseTest, NodeSpeedJitterPerturbsRuntime) {
  auto wall_with_sigma = [](double sigma) {
    SystemConfig cfg;
    cfg.machine = MachineSpec::wyeast_e5520();
    cfg.node_speed_sigma = sigma;
    cfg.seed = 5;
    System sys{cfg};
    const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, compute_only(seconds(10))));
    sys.run();
    return (sys.task_stats(id).end_time - sys.task_stats(id).start_time).seconds();
  };
  EXPECT_DOUBLE_EQ(wall_with_sigma(0.0), 10.0);
  const double jittered = wall_with_sigma(0.005);
  EXPECT_NE(jittered, 10.0);
  EXPECT_NEAR(jittered, 10.0, 0.3);
}

}  // namespace
}  // namespace smilab
