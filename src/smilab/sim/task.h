// Task and action model.
//
// A task is a simulated schedulable entity (an MPI rank, a pthread, a
// benchmark process). Its behaviour is a sequence of Actions produced by an
// ActionSource; the System interprets actions against the machine, network
// and SMM state. Trace-driven execution (in the LogGOPSim tradition) keeps
// the noise-injection semantics exact and the interpreter in one place.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "smilab/cpu/workload_profile.h"
#include "smilab/time/sim_time.h"

namespace smilab {

struct TaskId {
  std::int32_t value = -1;
  [[nodiscard]] bool valid() const { return value >= 0; }
  bool operator==(const TaskId&) const = default;
};

struct GroupId {
  std::int32_t value = -1;
  [[nodiscard]] bool valid() const { return value >= 0; }
  bool operator==(const GroupId&) const = default;
};

// --- Actions ----------------------------------------------------------------

/// Wildcard source rank for Recv/Irecv (MPI_ANY_SOURCE): matches the
/// earliest-arrival message with the requested tag from any sender.
inline constexpr int kAnySource = -1;

/// Execute `work` seconds of computation at nominal single-thread speed.
/// Actual wall time depends on HTT sibling occupancy, scheduling and SMM.
struct Compute {
  SimDuration work;
};

/// Blocking send to `dst_rank` within the task's group. Messages above the
/// rendezvous threshold additionally wait for the receiver's completion
/// acknowledgement (back-pressure), like a real MPI rendezvous send.
struct Send {
  int dst_rank = 0;
  std::int64_t bytes = 0;
  int tag = 0;
};

/// Blocking receive of a matching (src_rank, tag) message.
struct Recv {
  int src_rank = 0;
  int tag = 0;
};

/// Simultaneous send+receive (MPI_Sendrecv): both directions progress
/// concurrently; the action completes when both complete. Used by the
/// exchange-based collective algorithms, which would deadlock if lowered
/// to sequential blocking Send/Recv.
struct SendRecv {
  int dst_rank = 0;
  std::int64_t send_bytes = 0;
  int send_tag = 0;
  int src_rank = 0;
  int recv_tag = 0;
};

/// Yield the CPU and wake after `dur` (nanosleep-style).
struct Sleep {
  SimDuration dur;
};

/// Nonblocking send (MPI_Isend): pays the CPU-side copy, injects, and
/// completes the *action* immediately; the transfer completes `handle`
/// later (eager: at injection; rendezvous: at the receiver's ack). Handles
/// are task-local identifiers chosen by the program; reusing an
/// uncompleted handle is an error.
struct Isend {
  int dst_rank = 0;
  std::int64_t bytes = 0;
  int tag = 0;
  int handle = 0;
};

/// Nonblocking receive (MPI_Irecv): posts the match immediately and
/// returns; the receive's CPU-side copy cost is charged when the handle is
/// waited on (how real MPI progresses blocking-free receives).
struct Irecv {
  int src_rank = 0;
  int tag = 0;
  int handle = 0;
};

/// Block until every listed handle has completed (MPI_Waitall).
struct WaitAll {
  std::vector<int> handles;
};

/// Invoke a callback at the point this action is reached, without consuming
/// simulated time. Used by measurement tasks (e.g. the hwlat-style detector
/// reads the TSC between busy-loops).
struct Call {
  std::function<void()> fn;
};

using Action =
    std::variant<Compute, Send, Recv, SendRecv, Sleep, Call, Isend, Irecv,
                 WaitAll>;

// --- Action sources -----------------------------------------------------------

/// Produces a task's actions one at a time. `next()` is called when the
/// previous action completes; returning nullopt ends the task.
class ActionSource {
 public:
  virtual ~ActionSource() = default;
  virtual std::optional<Action> next() = 0;

  /// Actions this source currently holds in memory. The System samples it
  /// at spawn and after every pull to maintain the run-wide
  /// `peak_program_actions` high-water mark: a retained VectorActions
  /// reports its whole program, a streaming source only its live chunk
  /// buffer, a pure generator zero. Purely observational — it never feeds
  /// back into the schedule.
  [[nodiscard]] virtual std::int64_t materialized_actions() const { return 0; }
};

/// Vector-backed source: a fully materialized program. Product MPI jobs
/// stream theirs (mpi/streaming.h); whole rank programs reach this class
/// only through run_mpi_job, the adapter for tests, examples and benches.
/// Short fixed programs hold one directly: TaskSpec::with_actions, and a
/// UnixBench copy that owns a core, which runs as two Computes
/// (apps/unixbench/unixbench.cpp).
class VectorActions final : public ActionSource {
 public:
  explicit VectorActions(std::vector<Action> actions)
      : actions_(std::move(actions)) {}

  std::optional<Action> next() override {
    if (pc_ >= actions_.size()) return std::nullopt;
    return std::move(actions_[pc_++]);
  }

  [[nodiscard]] std::int64_t materialized_actions() const override {
    // Consumed slots stay allocated until the task ends (the vector is
    // never shrunk), so the honest figure is the full program size.
    return static_cast<std::int64_t>(actions_.size());
  }

 private:
  std::vector<Action> actions_;
  std::size_t pc_ = 0;
};

/// Generator-backed source: a callable producing actions lazily; used for
/// unbounded or time-dependent behaviours (detectors, throughput loops).
class GeneratorActions final : public ActionSource {
 public:
  using Generator = std::function<std::optional<Action>()>;
  explicit GeneratorActions(Generator gen) : gen_(std::move(gen)) {}

  std::optional<Action> next() override { return gen_(); }

 private:
  Generator gen_;
};

/// Fixed-count repetition of one prototype action with O(1) state — the
/// streaming form of the "N identical batches" loops (UnixBench's fixed-ops
/// tests). The prototype must be freely copyable (Compute/Sleep/Send-style
/// payloads; not Call, whose callback identity matters, and not WaitAll,
/// whose handles may not be reused while open).
class RepeatActions final : public ActionSource {
 public:
  RepeatActions(Action prototype, std::int64_t count)
      : prototype_(std::move(prototype)), left_(count) {}

  std::optional<Action> next() override {
    if (left_ <= 0) return std::nullopt;
    --left_;
    return prototype_;
  }

  [[nodiscard]] std::int64_t materialized_actions() const override {
    return 1;  // only the prototype lives in memory, however long the run
  }

 private:
  Action prototype_;
  std::int64_t left_ = 0;
};

// --- Task specification --------------------------------------------------------

/// How a task waits for communication.
enum class WaitPolicy {
  kSpin,   ///< busy-poll: CPU stays occupied (MPI default behaviour)
  kBlock,  ///< yield the CPU until the event arrives (pipes, sleeps)
};

struct TaskSpec {
  std::string name;
  int node = 0;
  int pinned_cpu = -1;  ///< node-local CPU index, or -1 for scheduler choice
  WorkloadProfile profile;
  WaitPolicy wait_policy = WaitPolicy::kSpin;
  std::unique_ptr<ActionSource> actions;

  /// Convenience: build from a materialized action vector.
  static TaskSpec with_actions(std::string name, int node,
                               std::vector<Action> actions) {
    TaskSpec spec;
    spec.name = std::move(name);
    spec.node = node;
    spec.actions = std::make_unique<VectorActions>(std::move(actions));
    return spec;
  }
};

/// Per-task accounting visible after the run. `os_view_cpu_time` is what
/// /proc-style accounting would report: it silently includes time the CPU
/// spent frozen in SMM while this task was current — the misattribution the
/// paper warns tool developers about. `true_cpu_time` excludes it.
struct TaskStats {
  SimTime start_time;
  SimTime end_time;
  SimDuration os_view_cpu_time{};
  SimDuration true_cpu_time{};
  SimDuration smm_stolen_time{};  ///< frozen-while-current time
  SimDuration refill_overhead{};  ///< extra work charged after SMM exits
  std::int64_t smm_hits = 0;      ///< SMM intervals that landed on this task
  std::int64_t messages_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t bytes_sent = 0;
  bool finished = false;
  /// Killed by a fail-stop node crash (fault injection); mutually exclusive
  /// with `finished`. end_time records the crash instant.
  bool failed = false;
};

}  // namespace smilab
