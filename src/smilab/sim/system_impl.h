// System's private state, shared by the five sim/system*.cpp files; each
// owns one layer's decisions (DESIGN.md §3).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "smilab/sim/system.h"

namespace smilab {

// Allocation-lazy FIFO for per-CPU and per-NIC queues. std::deque here
// cost ~600 bytes of chunk map per instance at construction — times 16
// runqueues and 2 NIC queues per node that dominated System construction
// at 8192 nodes (77 MB before a single task spawned). A vector with a
// consumed-prefix head index allocates nothing until first use, pops in
// amortized O(1), and iterates contiguously.
template <typename T>
class ShortFifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == v_.size(); }
  [[nodiscard]] T& front() { return v_[head_]; }
  void push_back(T x) {
    if (head_ != 0 && head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    }
    v_.push_back(std::move(x));
  }
  void pop_front() {
    ++head_;
    if (head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    } else if (head_ > 64 && head_ * 2 > v_.size()) {
      v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  void clear() {
    v_.clear();
    head_ = 0;
  }
  [[nodiscard]] auto begin() { return v_.begin() + static_cast<std::ptrdiff_t>(head_); }
  [[nodiscard]] auto end() { return v_.end(); }

 private:
  std::vector<T> v_;
  std::size_t head_ = 0;
};

/// One direction of a node's NIC, as a pausable FIFO server. Pauses are
/// refcounted so overlapping causes (SMM freeze, fault freeze, link-down,
/// crash) compose; the server resumes when the last cause clears.
///
/// The message in service is `active`, with `remaining` service time left
/// as of `since`; one done event per service (guarded by `epoch`) hands it
/// on and starts the next queued message. A pause cancels the done event
/// and banks the elapsed service; resuming re-arms it with the rest plus
/// the TCP loss-recovery draw.
struct System::NicServer {
  ShortFifo<MsgHandle> queue;        // messages awaiting service
  MsgHandle active;                  // null = idle
  SimDuration remaining{};
  SimTime since;
  SimTime paused_at;                 // start of the outermost pause
  int pause_depth = 0;
  std::uint64_t epoch = 0;
  EventId done_ev{};

  [[nodiscard]] bool paused() const { return pause_depth > 0; }
};

// Field order is measured, hot first (DESIGN.md §16). At 64k ranks the
// first touch of a rank's state is the costliest load on the event path,
// so everything one action reads sits in the leading 328 bytes, roughly
// in the order a completion event reads it: flags and small ints, the
// work state, `profile` and `stats` (settle, current_rate, start_work,
// reschedule_completion), the pending-ack vector every poll tests, the
// action source, then the interpreter state and the action itself.
// Message-path and cold fields trail: the nonblocking box, the unexpected
// queue, ack-wake bookkeeping and the name. pin_layout() keeps that split.
// Every TaskImpl starts a cache line (System::tasks_ is a ChunkArena), so
// these offsets name the same lines for every rank.
struct alignas(64) System::TaskImpl {
  enum class State : std::uint8_t {
    kReady,       ///< runnable, waiting for its CPU
    kRunning,     ///< current on its CPU (executing or spin-waiting)
    kBlocked,     ///< off-CPU, waiting for a message/ack (kBlock policy)
    kSleeping,    ///< off-CPU, waiting for a timer
    kDone,
  };

  // --- Flag/small-int cluster (one packed block) ---
  State state = State::kReady;
  bool on_cpu = false;
  bool queued = false;
  bool pinned = false;  ///< hard affinity: never migrated by idle stealing
  bool sr_send_injected = false;  // SendRecv: send half injected
  bool waiting_msg = false;
  bool waiting_ack = false;
  bool ack_arrived = false;
  bool waiting_all = false;  // parked in WaitAll
  bool maturing_acks = false;  ///< re-entrancy guard: a wake may step us
  WaitPolicy wait_policy = WaitPolicy::kSpin;
  int phase = 0;
  int wait_src = kAnySource;
  int wait_tag = 0;
  int rank = 0;
  int node = 0;
  int cpu = -1;  ///< node-local CPU this task is sticky-placed on
  TaskId id;
  GroupId group;

  // Work execution state.
  std::uint64_t epoch = 0;
  SimDuration work_left{};
  SimDuration pending_overhead{};  // refill / context-switch charged at next work
  SimTime run_since;
  double rate = 0.0;
  EventId completion_ev{};

  WorkloadProfile profile;
  TaskStats stats;

  // Lazily matured rendezvous acks (see deliver_ack): acks owed to this
  // sender whose delivery instant is already fixed but whose effects are
  // applied at the task's next poll — or by a wake event at the earliest
  // delivery instant whenever the task parks or has ended first. Every
  // poll tests the vector for emptiness, so it sits with the hot fields;
  // its wake bookkeeping trails.
  struct PendingAck {
    SimTime due;
    std::uint64_t seq = 0;  ///< delivery order among same-instant acks
    std::uint64_t key = 0;
  };
  std::vector<PendingAck> pending_acks;

  std::unique_ptr<ActionSource> source;
  /// Last-sampled source->materialized_actions(), mirrored into the
  /// System-wide program_actions_ sum by delta updates.
  std::int64_t materialized = 0;

  // Current action interpreter state.
  std::uint64_t pending_ack_key = 0;  // ack we are (or will be) waiting for
  MsgHandle active_msg;               // matched message being copied
  std::optional<Action> action;

  // --- Message path and cold tail ---

  // Nonblocking communication state (Isend/Irecv/WaitAll), boxed: a task
  // that never issues a nonblocking op never allocates it, and at 64k
  // ranks a blocking-only workload (e.g. the sendrecv ring cell) saves
  // ~190 inline bytes per rank — about 12 MB of dead residency. Only
  // `waiting_all` stays inline; hot wake paths test it for every task.
  // Rendezvous isend acks route through the System-wide AckRouter, not a
  // per-task map.
  struct NbState {
    NbHandleTable table;
    int active_nb_handle = -1;  ///< recv copy in progress

    // Active-WaitAll progress counters: armed once on entry, maintained
    // by completion events, so each re-poll is O(1) instead of a scan
    // over the handle list (the scan made dense waitall windows
    // quadratic). The ready bitmap is indexed by handle-list position;
    // find-first-set picks the same list-order-first receive the scan
    // picked.
    bool wa_armed = false;
    int wa_incomplete = 0;
    std::vector<std::uint64_t> wa_ready_bits;
  };
  std::unique_ptr<NbState> nbs_;

  NbState& nbs() {
    if (!nbs_) nbs_ = std::make_unique<NbState>();
    return *nbs_;
  }

  // Arrived-but-unmatched messages, bucketed by (src, tag) with a per-tag
  // arrival-order index for kAnySource (sim/transport.h).
  UnexpectedQueue unexpected;

  std::uint64_t pending_ack_seq = 0;
  EventId ack_wake_ev{};
  SimTime ack_wake_due;
  std::string name;

  // Layout pins, checked here because a member function body sees the
  // complete class. The per-action fields (flags through `action`, read by
  // settle, current_rate, start_work, reschedule_completion, step_action,
  // start_next_action and inject_message) end at byte 328, ahead of every
  // message-path and cold field, and the struct stays within eight cache
  // lines: its fields round up to 512 bytes under alignas(64).
  // offsetof on this non-standard-layout type is conditionally supported;
  // GCC and Clang compute it for any class without virtual bases.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  static void pin_layout() {
    constexpr std::size_t kHotEnd = offsetof(TaskImpl, action) + sizeof(action);
    static_assert(offsetof(TaskImpl, stats) + sizeof(TaskStats) <= kHotEnd &&
                      offsetof(TaskImpl, profile) < kHotEnd &&
                      offsetof(TaskImpl, source) < kHotEnd,
                  "a per-action field moved behind the action");
    static_assert(kHotEnd <= 328, "a field grew the per-action prefix");
    static_assert(offsetof(TaskImpl, nbs_) >= kHotEnd &&
                      offsetof(TaskImpl, unexpected) >= kHotEnd &&
                      offsetof(TaskImpl, pending_ack_seq) >= kHotEnd &&
                      offsetof(TaskImpl, ack_wake_ev) >= kHotEnd &&
                      offsetof(TaskImpl, name) >= kHotEnd,
                  "a message-path or cold field moved into the per-action prefix");
    static_assert(sizeof(TaskImpl) <= 512, "per-rank residency grew");
  }
#pragma GCC diagnostic pop
};

/// One logical CPU's scheduler state. System::cpus_ holds every node's
/// CPUs in one node-major array, so the rate path reaches a sibling by
/// index arithmetic instead of walking Cluster -> Node -> NodeState.
struct System::CpuState {
  // A vector, not a deque: runqueues are short (a few sticky tasks), and
  // an untouched vector holds no heap block — see ShortFifo above for why
  // that matters at 8192 nodes x 16 CPUs.
  std::vector<std::int32_t> runqueue;  // task indices
  std::int32_t current = -1;
  bool frozen = false;
  /// Node-local index of the HTT sibling, or -1: a copy of the static
  /// LogicalCpu::sibling (validate() checks it). 16 bits fit the padding
  /// after `frozen`, so the struct stays 56 B.
  std::int16_t sibling = -1;
  EventId quantum_ev{};
  std::int32_t last_task = -1;
  int assigned = 0;  ///< sticky placements on this CPU (for balancing)
};

struct System::NodeState {
  NicServer egress;
  NicServer ingress;
  bool in_smm = false;
  bool fault_frozen = false;  ///< transient whole-node fault stall active
  bool crashed = false;       ///< fail-stop: permanently dead
  SimTime freeze_start;       ///< SMM entry
  SimTime last_smm_exit{-1};  ///< negative: never been in SMM
  std::vector<std::int32_t> deferred_wakes;  // timer wakes held for the thaw

  /// A whole-node cause (SMM or a fault freeze) holds every online CPU.
  [[nodiscard]] bool stopped() const { return in_smm || fault_frozen; }
};

// Internal accessors: every index comes from the System's own state
// (spawned task ids, placed nodes and CPUs), so they are asserted, not
// range-checked. The public accessors that take a caller's TaskId or
// GroupId range-check it (checked_task, .at()).
// The mutable overloads share the const ones' checks and index arithmetic.
inline const System::TaskImpl& System::task(TaskId id) const {
  assert(id.value >= 0 && static_cast<std::size_t>(id.value) < tasks_.size());
  return tasks_[static_cast<std::size_t>(id.value)];
}
inline System::TaskImpl& System::task(TaskId id) {
  return const_cast<TaskImpl&>(std::as_const(*this).task(id));
}
inline const System::CpuState& System::cpu_state(int node, int cpu) const {
  assert(node >= 0 && node < cfg_.node_count);
  assert(cpu >= 0 && cpu < cpus_per_node_);
  return cpus_[static_cast<std::size_t>(node) *
                   static_cast<std::size_t>(cpus_per_node_) +
               static_cast<std::size_t>(cpu)];
}
inline System::CpuState& System::cpu_state(int node, int cpu) {
  return const_cast<CpuState&>(std::as_const(*this).cpu_state(node, cpu));
}
inline const System::NodeState& System::node_state(int node) const {
  assert(node >= 0 && static_cast<std::size_t>(node) < node_state_.size());
  return node_state_[static_cast<std::size_t>(node)];
}
inline System::NodeState& System::node_state(int node) {
  return const_cast<NodeState&>(std::as_const(*this).node_state(node));
}

}  // namespace smilab
