// Hang/deadlock diagnostics: the wait-for-graph detector behind
// System::try_run, the hang watchdog under periodic SMI noise, max_sim_time
// post-mortems, structured configuration errors, and the CLI exit codes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "smilab/cli/commands.h"
#include "smilab/mc/corpus.h"
#include "smilab/sim/choice_hooks.h"
#include "smilab/sim/system.h"

namespace smilab {
namespace {

SystemConfig base_config(int nodes = 1) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::poweredge_r410_e5620();
  cfg.node_count = nodes;
  cfg.seed = 42;
  return cfg;
}

/// Two ranks exchange eager sends whose tags never match the receives: the
/// classic seeded tag-mismatch deadlock. Both sends complete (eager), both
/// messages land unmatched, both ranks block in Recv forever.
void spawn_tag_mismatch(System& sys) {
  const GroupId g = sys.create_group(2);
  {
    std::vector<Action> prog;
    prog.push_back(Send{1, 1024, 7});
    prog.push_back(Recv{1, 100});  // rank 1 only ever sends tag 7
    sys.spawn_member(g, 0, TaskSpec::with_actions("r0", 0, std::move(prog)));
  }
  {
    std::vector<Action> prog;
    prog.push_back(Send{0, 1024, 7});
    prog.push_back(Recv{0, 200});  // rank 0 only ever sends tag 7
    sys.spawn_member(g, 1, TaskSpec::with_actions("r1", 0, std::move(prog)));
  }
}

TEST(DiagnosisTest, TagMismatchDeadlockIsFullyDiagnosed) {
  System sys{base_config()};
  spawn_tag_mismatch(sys);
  const RunResult result = sys.try_run();  // must not throw
  EXPECT_EQ(result.status, RunStatus::kDeadlock);
  EXPECT_FALSE(result.ok());
  const RunDiagnosis& d = result.diagnosis;
  ASSERT_EQ(d.ranks.size(), 2u);
  for (const RankDiagnosis& r : d.ranks) {
    EXPECT_EQ(r.op, BlockedOp::kRecv);
    EXPECT_EQ(r.peer_rank, 1 - r.rank);
    EXPECT_EQ(r.tag, r.rank == 0 ? 100 : 200);
    // The mismatched eager send arrived and sits unmatched in the queue —
    // the classic symptom distinguishing a tag bug from a lost message.
    EXPECT_EQ(r.unexpected_depth, 1u);
    EXPECT_FALSE(r.peer_failed);
  }
  // r0 -> r1 -> r0 (entry repeated at the end).
  ASSERT_EQ(d.cycle.size(), 3u);
  EXPECT_EQ(d.cycle.front().value, d.cycle.back().value);
  EXPECT_EQ(d.in_flight_messages, 0);
}

TEST(DiagnosisTest, RunThrowsSimulationErrorWithDiagnosis) {
  System sys{base_config()};
  spawn_tag_mismatch(sys);
  try {
    sys.run();
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    EXPECT_EQ(e.status(), RunStatus::kDeadlock);
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("r0"), std::string::npos);
    EXPECT_NE(what.find("wait-for cycle"), std::string::npos);
  }
}

TEST(DiagnosisTest, WatchdogCatchesDeadlockUnderSmiNoiseBeforeMaxSimTime) {
  // With the SMI controller armed the event queue never drains, so the
  // empty-queue deadlock check can't fire; only the hang watchdog stops
  // the run — and it must do so in ~hang_timeout of simulated time, not
  // grind on to max_sim_time.
  SystemConfig cfg = base_config();
  cfg.smi = SmiConfig::long_every_second();
  cfg.hang_timeout = seconds(2);
  cfg.max_sim_time = seconds(3600);
  System sys{cfg};
  spawn_tag_mismatch(sys);
  const RunResult result = sys.try_run();
  // The watchdog fired as a hang; the wait-for cycle upgrades it.
  EXPECT_EQ(result.status, RunStatus::kDeadlock);
  ASSERT_EQ(result.diagnosis.cycle.size(), 3u);
  EXPECT_LT(result.diagnosis.sim_now.seconds(), 10.0);
  ASSERT_EQ(result.diagnosis.ranks.size(), 2u);
  EXPECT_EQ(result.diagnosis.ranks[0].op, BlockedOp::kRecv);
}

TEST(DiagnosisTest, CircularRendezvousSendsDiagnoseAsAckWaitCycle) {
  // Both ranks issue blocking sends above the rendezvous threshold and
  // neither ever posts the matching receive: each waits for an ack only
  // the other's progress could produce. The classic head-to-head
  // blocking-send deadlock.
  System sys{base_config(2)};
  const GroupId g = sys.create_group(2);
  const std::int64_t big = 256 * 1024;  // > 64 KiB rendezvous threshold
  for (int r = 0; r < 2; ++r) {
    std::vector<Action> prog;
    prog.push_back(Send{1 - r, big, 4});
    prog.push_back(Recv{1 - r, 4});
    sys.spawn_member(
        g, r, TaskSpec::with_actions("s" + std::to_string(r), r, std::move(prog)));
  }
  const RunResult result = sys.try_run();
  EXPECT_EQ(result.status, RunStatus::kDeadlock);
  const RunDiagnosis& d = result.diagnosis;
  ASSERT_EQ(d.ranks.size(), 2u);
  for (const RankDiagnosis& r : d.ranks) {
    EXPECT_EQ(r.op, BlockedOp::kAckWait);
    EXPECT_EQ(r.peer_rank, 1 - r.rank);
    EXPECT_EQ(r.tag, 4);
  }
  ASSERT_EQ(d.cycle.size(), 3u);
  EXPECT_EQ(d.cycle.front().value, d.cycle.back().value);
}

TEST(DiagnosisTest, NoFalseHangOnLongComputeOrSleep) {
  // A long compute and a long sleep make no "progress" for far longer than
  // hang_timeout, but neither is comm-blocked — the watchdog must not fire.
  SystemConfig cfg = base_config();
  cfg.smi = SmiConfig::long_every_second();  // keeps events flowing
  cfg.hang_timeout = seconds(1);
  System sys{cfg};
  std::vector<Action> prog;
  prog.push_back(Compute{seconds(20)});
  prog.push_back(Sleep{seconds(5)});
  const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, std::move(prog)));
  const RunResult result = sys.try_run();
  EXPECT_TRUE(result.ok()) << result.to_string();
  EXPECT_TRUE(sys.task_stats(id).finished);
}

TEST(DiagnosisTest, MaxSimTimeReportsUnfinishedTasks) {
  SystemConfig cfg = base_config();
  cfg.smi = SmiConfig::long_every_second();  // periodic events to step on
  cfg.max_sim_time = seconds(5);
  cfg.hang_timeout = SimDuration::zero();  // isolate the time-ceiling path
  System sys{cfg};
  std::vector<Action> prog;
  prog.push_back(Compute{seconds(3600)});
  sys.spawn(TaskSpec::with_actions("marathon", 0, std::move(prog)));
  const RunResult result = sys.try_run();
  EXPECT_EQ(result.status, RunStatus::kMaxSimTime);
  ASSERT_EQ(result.diagnosis.ranks.size(), 1u);
  EXPECT_EQ(result.diagnosis.ranks[0].name, "marathon");
  EXPECT_EQ(result.diagnosis.ranks[0].op, BlockedOp::kNone);  // computing
  const std::string report = result.to_string();
  EXPECT_NE(report.find("max_sim_time"), std::string::npos);
  EXPECT_NE(report.find("marathon"), std::string::npos);
}

TEST(DiagnosisTest, NoOnlineCpuIsAStructuredConfigError) {
  System sys{base_config()};
  Node& node = sys.cluster().node(0);
  for (int i = 0; i < node.cpu_count(); ++i) node.set_online(i, false);
  std::vector<Action> prog;
  prog.push_back(Compute{seconds(1)});
  try {
    sys.spawn(TaskSpec::with_actions("t", 0, std::move(prog)));
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& e) {
    EXPECT_EQ(e.status(), RunStatus::kConfigError);
    const std::string what = e.what();
    EXPECT_NE(what.find("node 0"), std::string::npos);
    EXPECT_NE(what.find("0 of "), std::string::npos);
    EXPECT_NE(what.find("mask 0x0"), std::string::npos);
  }
}

TEST(DiagnosisTest, CliMapsSimulationFaultsToExitCode3) {
  const char* argv[] = {"smilab", "faults",          "--nodes=4",
                        "--crash=2:50", "--hang-timeout-s=2"};
  std::ostringstream out, err;
  const int rc = run_cli(5, argv, out, err);
  EXPECT_EQ(rc, 3);
  // The diagnosis reaches the user on stderr.
  EXPECT_NE(err.str().find("deadlock"), std::string::npos);
  EXPECT_NE(err.str().find("peer task failed"), std::string::npos);
}

TEST(DiagnosisTest, CliMapsUsageErrorsToExitCode2) {
  {
    const char* argv[] = {"smilab", "faults", "--freeze=banana"};
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(3, argv, out, err), 2);
  }
  {
    const char* argv[] = {"smilab", "faults", "--no-such-flag=1"};
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(3, argv, out, err), 2);
  }
}

TEST(DiagnosisTest, CliFaultFlagsAcceptCommaSeparatedSpecLists) {
  // A repeated flag is a usage error, so the comma list is the only way
  // to put two faults of one kind in a single command.
  const char* argv[] = {"smilab", "faults", "--nodes=2", "--iters=50",
                        "--freeze=0:5:30,1:10:30"};
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(5, argv, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("FREEZE node 0"), std::string::npos);
  EXPECT_NE(out.str().find("FREEZE node 1"), std::string::npos);
  {
    const char* argv2[] = {"smilab", "faults", "--freeze=0:50:100,banana"};
    std::ostringstream o2, e2;
    EXPECT_EQ(run_cli(3, argv2, o2, e2), 2);
    EXPECT_NE(e2.str().find("banana"), std::string::npos);
  }
}

// --- Enriched wait-for reports on the shared mc fixtures ---------------------
//
// The model checker and the diagnosis must agree on what a wedge looks
// like, so these tests drive the SAME fixture programs the mc corpus pins
// (src/smilab/mc/corpus.h) and assert the enriched per-rank fields.

TEST(DiagnosisTest, SharedSendSendFixtureDiagnosesAsAckWaitCycle) {
  SystemConfig cfg = base_config(2);
  System sys{cfg};
  mc::spawn_sendsend_cycle(sys);
  const RunResult result = sys.try_run();
  EXPECT_EQ(result.status, RunStatus::kDeadlock);
  const RunDiagnosis& d = result.diagnosis;
  ASSERT_EQ(d.ranks.size(), 2u);
  for (const RankDiagnosis& r : d.ranks) {
    EXPECT_EQ(r.op, BlockedOp::kAckWait);
    EXPECT_EQ(r.peer_rank, 1 - r.rank);
    EXPECT_EQ(r.tag, 4);
    EXPECT_FALSE(r.any_source);
  }
  ASSERT_EQ(d.cycle.size(), 3u);
}

TEST(DiagnosisTest, WaitAllWedgeListsItsOpenHandles) {
  System sys{base_config()};
  mc::spawn_waitall_never(sys);
  const RunResult result = sys.try_run();
  EXPECT_EQ(result.status, RunStatus::kDeadlock);
  const RunDiagnosis& d = result.diagnosis;
  ASSERT_EQ(d.ranks.size(), 1u);  // the silent rank finished
  const RankDiagnosis& r = d.ranks[0];
  EXPECT_EQ(r.op, BlockedOp::kWaitAll);
  EXPECT_EQ(r.incomplete_handles, 1u);
  ASSERT_EQ(r.pending_handles.size(), 1u);
  EXPECT_EQ(r.pending_handles[0].id, 0);
  EXPECT_FALSE(r.pending_handles[0].is_send);
  EXPECT_EQ(r.pending_handles[0].peer_rank, 1);
  EXPECT_EQ(r.pending_handles[0].tag, 5);
  EXPECT_FALSE(r.pending_handles[0].any_source);
  const std::string report = result.to_string();
  EXPECT_NE(report.find("open handles:"), std::string::npos) << report;
  EXPECT_NE(report.find("[h0 recv<-1 tag=5]"), std::string::npos) << report;
}

/// Forces the non-canonical branch of every wildcard match — the schedule
/// that starves the starvation fixture's specific receive.
class TakeSecondMatch final : public SchedulePolicy {
 public:
  std::size_t choose(ChoiceKind kind, std::size_t n) override {
    return kind == ChoiceKind::kAnySourceMatch && n > 1 ? 1 : 0;
  }
};

TEST(DiagnosisTest, StarvedReceiveShowsTheUnmatchedQueueSample) {
  // Canonically this program completes; under the alternative wildcard
  // match rank 1's message is consumed by the wildcard and rank 0's
  // specific Recv(src=1) starves while rank 2's send sits queued. The
  // report must show that stranded message — it IS the bug explanation.
  System sys{base_config()};
  mc::spawn_anysource_starve(sys);
  TakeSecondMatch policy;
  sys.set_schedule_policy(&policy);
  const RunResult result = sys.try_run();
  EXPECT_EQ(result.status, RunStatus::kDeadlock);
  const RunDiagnosis& d = result.diagnosis;
  ASSERT_EQ(d.ranks.size(), 1u);
  const RankDiagnosis& r = d.ranks[0];
  EXPECT_EQ(r.op, BlockedOp::kRecv);
  EXPECT_EQ(r.peer_rank, 1);
  EXPECT_FALSE(r.any_source);
  EXPECT_EQ(r.unexpected_depth, 1u);
  ASSERT_EQ(r.unexpected_sample.size(), 1u);
  EXPECT_EQ(r.unexpected_sample[0].src_rank, 2);
  EXPECT_EQ(r.unexpected_sample[0].tag, 5);
  EXPECT_EQ(r.unexpected_sample[0].bytes, 1024);
  const std::string report = result.to_string();
  EXPECT_NE(report.find("queued unmatched (arrival order): [src=2 tag=5"),
            std::string::npos)
      << report;
}

TEST(DiagnosisTest, BlockedWildcardReceiveIsFlaggedAnySource) {
  System sys{base_config()};
  const GroupId g = sys.create_group(2);
  {
    std::vector<Action> prog;
    prog.push_back(Recv{kAnySource, 9});
    sys.spawn_member(g, 0, TaskSpec::with_actions("w", 0, std::move(prog)));
  }
  {
    std::vector<Action> prog;
    prog.push_back(Compute{milliseconds(1)});  // never sends
    sys.spawn_member(g, 1, TaskSpec::with_actions("q", 0, std::move(prog)));
  }
  const RunResult result = sys.try_run();
  EXPECT_EQ(result.status, RunStatus::kDeadlock);
  ASSERT_EQ(result.diagnosis.ranks.size(), 1u);
  EXPECT_TRUE(result.diagnosis.ranks[0].any_source);
  EXPECT_NE(result.to_string().find("ANY_SOURCE"), std::string::npos);
}

TEST(DiagnosisTest, CliCheckReplayMapsWedgeToExitCode3) {
  // The worked example from the README: replaying the starvation schedule
  // wedges, prints the diagnosis on stderr, and exits 3.
  const char* argv[] = {"smilab", "check", "--program=anysource-starve",
                        "--replay=a1/2"};
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(4, argv, out, err), 3);
  EXPECT_NE(out.str().find("deadlock"), std::string::npos) << out.str();
  EXPECT_NE(err.str().find("queued unmatched"), std::string::npos)
      << err.str();
  // A clean program explores to exit 0; garbage tokens are usage errors.
  {
    const char* argv2[] = {"smilab", "check", "--program=pingpong"};
    std::ostringstream o2, e2;
    EXPECT_EQ(run_cli(3, argv2, o2, e2), 0) << e2.str();
  }
  {
    const char* argv3[] = {"smilab", "check", "--program=pingpong",
                           "--replay=bogus"};
    std::ostringstream o3, e3;
    EXPECT_EQ(run_cli(4, argv3, o3, e3), 2);
  }
}

TEST(DiagnosisTest, CliFaultsCommandSucceedsOnSurvivableFaults) {
  const char* argv[] = {"smilab",        "faults",    "--nodes=2",
                        "--iters=20",    "--drop=0.2"};
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(5, argv, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("retransmission"), std::string::npos);
  EXPECT_NE(out.str().find("completed"), std::string::npos);
}

}  // namespace
}  // namespace smilab
