#include "smilab/sim/system.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "smilab/core/fnv.h"
#include "smilab/smm/smi_controller.h"

namespace smilab {

namespace {
constexpr std::int64_t kAckBytes = 64;
}  // namespace

// --- Internal structures -----------------------------------------------------

// MessageRec and the pooled transport structures live in sim/transport.h.

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
  // Current action's Action index for the completed-action ring (only
  // maintained when the ring is enabled; -1 = none); its start time sits
  // in the cold tail.
  std::int8_t action_kind = -1;
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
  SimTime action_start;
  std::string name;

  // Layout pins, checked here because a member function body sees the
  // complete class. The per-action fields (flags through `action`, read by
  // settle, current_rate, start_work, reschedule_completion, step_action,
  // start_next_action and inject_message) end at byte 328, ahead of every
  // message-path and cold field, and the struct stays within eight cache
  // lines: its 472 bytes of fields round up to 512 under alignas(64).
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
  SimTime freeze_start;
  SimTime last_smm_exit{-1};  ///< negative: never been in SMM
  std::vector<std::int32_t> deferred_wakes;  // timer wakes that fired frozen
};

// --- Construction -----------------------------------------------------------

System::System(SystemConfig cfg)
    : cfg_(cfg),
      cluster_(cfg.node_count, cfg.machine),
      net_(cfg.net),
      smm_acct_(cfg.node_count),
      master_rng_(cfg.seed),
      refill_rng_(master_rng_.fork(stream_label("refill"))),
      nic_rng_(master_rng_.fork(stream_label("nic"))),
      tasks_(static_cast<std::size_t>(cfg.node_count) *
             static_cast<std::size_t>(cfg.machine.logical_cpus())) {
  htt_refill_run_factor_ =
      master_rng_.fork(stream_label("htt_luck")).uniform(0.5, 1.8);
  node_speed_.resize(static_cast<std::size_t>(cfg.node_count), 1.0);
  if (cfg_.node_speed_sigma > 0) {
    Rng speed_rng = master_rng_.fork(stream_label("node_speed"));
    for (auto& s : node_speed_) {
      s = std::clamp(speed_rng.normal(1.0, cfg_.node_speed_sigma), 0.5, 1.5);
    }
  }
  fault_rate_.resize(static_cast<std::size_t>(cfg.node_count), 1.0);
  node_state_.resize(static_cast<std::size_t>(cfg.node_count));
  cpus_per_node_ = cfg.machine.logical_cpus();
  if (cpus_per_node_ > std::numeric_limits<std::int16_t>::max()) {
    throw SimulationError(RunStatus::kConfigError,
                          "a node has more logical CPUs than CpuState::sibling "
                          "can index");
  }
  cpus_.resize(static_cast<std::size_t>(cfg.node_count) *
               static_cast<std::size_t>(cpus_per_node_));
  for (int n = 0; n < cfg.node_count; ++n) {
    const Node& topo = cluster_.node(n);
    for (int c = 0; c < cpus_per_node_; ++c) {
      cpu_state(n, c).sibling = static_cast<std::int16_t>(topo.cpu(c).sibling);
    }
  }
  if (cfg_.smi.enabled()) {
    smi_ = std::make_unique<SmiController>(*this, cfg_.smi);
  }
  // Concurrent rendezvous routes scale with the cluster during a
  // collective phase; pre-size so the first one does not rehash its way up.
  ack_router_.reserve(static_cast<std::size_t>(cfg.node_count) * 4);
}

System::~System() = default;

std::size_t System::task_arena_bytes() const {
  return tasks_.capacity() * sizeof(TaskImpl);
}

void System::set_online_cpus(int n) {
  assert(tasks_.empty() && "change CPU topology before spawning tasks");
  for (int i = 0; i < cluster_.node_count(); ++i) {
    cluster_.node(i).set_online_cpus(n);
  }
}

// Internal accessors: every index comes from the System's own state
// (spawned task ids, placed nodes and CPUs), so they are asserted, not
// range-checked. The public accessors below that take a caller's TaskId or
// GroupId range-check it (checked_task, .at()).
System::TaskImpl& System::task(TaskId id) {
  assert(id.value >= 0 && static_cast<std::size_t>(id.value) < tasks_.size());
  return tasks_[static_cast<std::size_t>(id.value)];
}
const System::TaskImpl& System::task(TaskId id) const {
  assert(id.value >= 0 && static_cast<std::size_t>(id.value) < tasks_.size());
  return tasks_[static_cast<std::size_t>(id.value)];
}
const System::TaskImpl& System::checked_task(TaskId id) const {
  if (id.value < 0 || static_cast<std::size_t>(id.value) >= tasks_.size()) {
    throw std::out_of_range("no task " + std::to_string(id.value));
  }
  return tasks_[static_cast<std::size_t>(id.value)];
}
System::CpuState& System::cpu_state(int node, int cpu) {
  assert(node >= 0 && node < cfg_.node_count);
  assert(cpu >= 0 && cpu < cpus_per_node_);
  return cpus_[static_cast<std::size_t>(node) *
                   static_cast<std::size_t>(cpus_per_node_) +
               static_cast<std::size_t>(cpu)];
}
const System::CpuState& System::cpu_state(int node, int cpu) const {
  assert(node >= 0 && node < cfg_.node_count);
  assert(cpu >= 0 && cpu < cpus_per_node_);
  return cpus_[static_cast<std::size_t>(node) *
                   static_cast<std::size_t>(cpus_per_node_) +
               static_cast<std::size_t>(cpu)];
}
System::NodeState& System::node_state(int node) {
  assert(node >= 0 && static_cast<std::size_t>(node) < node_state_.size());
  return node_state_[static_cast<std::size_t>(node)];
}
const System::NodeState& System::node_state(int node) const {
  assert(node >= 0 && static_cast<std::size_t>(node) < node_state_.size());
  return node_state_[static_cast<std::size_t>(node)];
}

// --- Groups and spawning -------------------------------------------------------

GroupId System::create_group(int size) {
  assert(size >= 1);
  groups_.emplace_back(static_cast<std::size_t>(size), TaskId{});
  return GroupId{static_cast<std::int32_t>(groups_.size() - 1)};
}

TaskId System::spawn(TaskSpec spec) {
  const GroupId g = create_group(1);
  return spawn_member(g, 0, std::move(spec));
}

TaskId System::spawn_member(GroupId g, int rank, TaskSpec spec) {
  assert(g.valid());
  assert(spec.actions && "task needs an action source");
  auto& members = groups_.at(static_cast<std::size_t>(g.value));
  assert(rank >= 0 && rank < static_cast<int>(members.size()));
  assert(!members[static_cast<std::size_t>(rank)].valid() && "rank already spawned");

  // The node and pinned CPU are the caller's: range-check them where they
  // enter the System, since every later use indexes without a check.
  if (spec.node < 0 || spec.node >= cfg_.node_count ||
      spec.pinned_cpu >= cpus_per_node_) {
    throw std::out_of_range("spawn: node " + std::to_string(spec.node) +
                            " / CPU " + std::to_string(spec.pinned_cpu) +
                            " outside the cluster");
  }
  const int cpu = spec.pinned_cpu >= 0 ? spec.pinned_cpu : place(spec);
  TaskImpl& t = tasks_.emplace_back();
  t.id = TaskId{static_cast<std::int32_t>(tasks_.size() - 1)};
  t.group = g;
  t.rank = rank;
  t.name = std::move(spec.name);
  t.node = spec.node;
  t.profile = spec.profile;
  t.wait_policy = spec.wait_policy;
  t.source = std::move(spec.actions);
  t.stats.start_time = now();
  t.pinned = spec.pinned_cpu >= 0;
  t.cpu = cpu;
  assert(cluster_.node(t.node).is_online(t.cpu) && "placed on offline CPU");

  members[static_cast<std::size_t>(rank)] = t.id;
  cpu_state(t.node, t.cpu).assigned += 1;
  ++unfinished_tasks_;

  t.materialized = t.source->materialized_actions();
  program_actions_ += t.materialized;
  if (program_actions_ > peak_program_actions_) {
    peak_program_actions_ = program_actions_;
  }

  make_ready(t);
  return t.id;
}

int System::place(const TaskSpec& spec) {
  const Node& node = cluster_.node(spec.node);
  int best = -1;
  // Linux-style preference: least-loaded CPU, idle physical cores before
  // HTT siblings of busy cores, lowest index as the deterministic tie-break.
  long best_key0 = 0, best_key1 = 0;
  for (int i = 0; i < node.cpu_count(); ++i) {
    if (!node.is_online(i)) continue;
    const CpuState& cs = cpu_state(spec.node, i);
    const int sib = cs.sibling;
    const int sib_assigned =
        (sib >= 0 && node.is_online(sib)) ? cpu_state(spec.node, sib).assigned : 0;
    const long key0 = cs.assigned;
    const long key1 = sib_assigned;
    if (best < 0 || key0 < best_key0 || (key0 == best_key0 && key1 < best_key1)) {
      best = i;
      best_key0 = key0;
      best_key1 = key1;
    }
  }
  if (best < 0) {
    // Structured config error: name the node and its online-CPU mask so a
    // bad hotplug sweep is diagnosable from the message alone.
    std::uint64_t mask = 0;
    for (int i = 0; i < node.cpu_count() && i < 64; ++i) {
      if (node.is_online(i)) mask |= 1ull << i;
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%llx",
                  static_cast<unsigned long long>(mask));
    throw SimulationError(
        RunStatus::kConfigError,
        "no online CPU available on node " + std::to_string(node.id()) +
            " (" + std::to_string(node.online_cpu_count()) + " of " +
            std::to_string(node.cpu_count()) + " CPUs online, mask " + hex +
            ")");
  }
  return best;
}

// --- Scheduling ------------------------------------------------------------------

void System::make_ready(TaskImpl& t) {
  assert(!t.on_cpu);
  if (t.queued) return;
  t.state = TaskImpl::State::kReady;
  t.queued = true;
  auto& cs = cpu_state(t.node, t.cpu);
  cs.runqueue.push_back(t.id.value);
  if (cs.current < 0) {
    dispatch(t.node, t.cpu);
  } else {
    arm_quantum(t.node, t.cpu);
  }
}

void System::dispatch(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  if (cs.frozen || cs.current >= 0) return;
  if (cs.runqueue.empty()) steal_into(node, cpu);
  if (cs.runqueue.empty()) return;
  const std::int32_t idx = cs.runqueue.front();
  cs.runqueue.erase(cs.runqueue.begin());
  TaskImpl& t = tasks_[static_cast<std::size_t>(idx)];
  assert(t.queued);
  t.queued = false;
  t.state = TaskImpl::State::kRunning;
  t.on_cpu = true;
  cs.current = idx;
  if (cs.last_task >= 0 && cs.last_task != idx) {
    t.pending_overhead += cfg_.os.context_switch;
  }
  cs.last_task = idx;
  arm_quantum(node, cpu);
  sibling_rate_changed(node, cpu);
  begin_running(t);
}

void System::arm_quantum(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  if (cs.quantum_ev.valid() || cs.frozen || cs.current < 0 || cs.runqueue.empty())
    return;
  cs.quantum_ev = engine_.schedule_after(
      cfg_.os.quantum, [this, node, cpu] {
        auto& s = cpu_state(node, cpu);
        s.quantum_ev = EventId{};
        if (s.frozen || s.current < 0 || s.runqueue.empty()) return;
        preempt_current(node, cpu);
      });
}

// CFS-style idle balancing: an idle CPU pulls a waiting task from the most
// loaded runqueue of its node. Without this, uneven thread counts on HTT
// configurations leave whole cores idle while a shared core grinds — real
// kernels rebalance, and the paper's Convolve (a block work queue) depends
// on it. Tasks with hard affinity (TaskSpec::pinned_cpu) are never moved.
void System::steal_into(int node, int cpu) {
  const Node& topo = cluster_.node(node);
  int donor = -1;
  std::size_t donor_depth = 0;
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (i == cpu || !topo.is_online(i)) continue;
    std::size_t stealable = 0;
    for (const std::int32_t idx : cpu_state(node, i).runqueue) {
      if (!tasks_[static_cast<std::size_t>(idx)].pinned) ++stealable;
    }
    if (stealable > donor_depth) {
      donor = i;
      donor_depth = stealable;
    }
  }
  if (donor < 0 || donor_depth == 0) return;
  auto& donor_queue = cpu_state(node, donor).runqueue;
  // Take the most recently queued unpinned task (coldest cache footprint).
  for (auto it = donor_queue.rbegin(); it != donor_queue.rend(); ++it) {
    TaskImpl& t = tasks_[static_cast<std::size_t>(*it)];
    if (t.pinned) continue;
    assert(t.queued && t.cpu == donor);
    const std::int32_t idx = *it;
    donor_queue.erase(std::next(it).base());
    t.cpu = cpu;
    cpu_state(node, cpu).runqueue.push_back(idx);
    return;
  }
}

void System::preempt_current(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  assert(cs.current >= 0);
  TaskImpl& t = tasks_[static_cast<std::size_t>(cs.current)];
  stop_running(t, /*keep_on_cpu=*/false);
  make_ready(t);
  dispatch(node, cpu);
}

// --- Execution progress ----------------------------------------------------------

bool System::sibling_busy(const TaskImpl& t) const {
  const int sib = cpu_state(t.node, t.cpu).sibling;
  if (sib < 0) return false;
  // An offline CPU never holds a current task (validate() checks it), so an
  // offline sibling reads as idle without consulting the topology.
  const CpuState& scs = cpu_state(t.node, sib);
  if (scs.current < 0) return false;
  const TaskImpl& other = tasks_[static_cast<std::size_t>(scs.current)];
  // A spin-waiting sibling (no work) uses PAUSE loops that release the
  // shared execution ports; only real work contends.
  return other.work_left > SimDuration::zero();
}

double System::current_rate(const TaskImpl& t) const {
  double rate = node_speed_[static_cast<std::size_t>(t.node)] *
                fault_rate_[static_cast<std::size_t>(t.node)] *
                execution_rate(t.profile, sibling_busy(t));
  if (!cfg_.os.tickless) {
    rate *= 1.0 - cfg_.os.tick_cost / cfg_.os.tick_period;
  }
  return rate;
}

void System::settle(TaskImpl& t) {
  if (!t.on_cpu) return;
  const SimDuration elapsed = now() - t.run_since;
  if (elapsed <= SimDuration::zero()) return;
  t.stats.os_view_cpu_time += elapsed;
  t.stats.true_cpu_time += elapsed;
  if (t.work_left > SimDuration::zero() && t.rate > 0) {
    const auto progress = static_cast<std::int64_t>(
        std::llround(static_cast<double>(elapsed.ns()) * t.rate));
    t.work_left = SimDuration{std::max<std::int64_t>(0, t.work_left.ns() - progress)};
  }
  t.run_since = now();
}

void System::begin_running(TaskImpl& t) {
  assert(t.on_cpu);
  assert(!cpu_state(t.node, t.cpu).frozen);
  t.run_since = now();
  t.rate = current_rate(t);
  if (t.work_left > SimDuration::zero()) {
    reschedule_completion(t);
  } else {
    step_action(t);
  }
}

void System::stop_running(TaskImpl& t, bool keep_on_cpu) {
  settle(t);
  ++t.epoch;
  engine_.cancel(t.completion_ev);
  t.completion_ev = EventId{};
  if (!keep_on_cpu && t.on_cpu) {
    auto& cs = cpu_state(t.node, t.cpu);
    assert(cs.current == t.id.value);
    cs.current = -1;
    t.on_cpu = false;
    if (cs.quantum_ev.valid()) {
      engine_.cancel(cs.quantum_ev);
      cs.quantum_ev = EventId{};
    }
    sibling_rate_changed(t.node, t.cpu);
  }
}

void System::reschedule_completion(TaskImpl& t) {
  assert(t.on_cpu && t.work_left > SimDuration::zero());
  ++t.epoch;
  engine_.cancel(t.completion_ev);
  assert(t.rate > 0);
  SimDuration d = scale(t.work_left, 1.0 / t.rate);
  if (d <= SimDuration::zero()) d = SimDuration{1};
  t.completion_ev = engine_.schedule_after(d, [this, id = t.id, ep = t.epoch] {
    TaskImpl& task_ref = task(id);
    if (task_ref.epoch != ep) return;
    on_work_complete(task_ref);
  });
}

void System::on_work_complete(TaskImpl& t) {
  settle(t);
  if (t.work_left > SimDuration{1}) {
    // Integer rounding left a sliver; finish it.
    reschedule_completion(t);
    return;
  }
  t.work_left = SimDuration::zero();
  ++t.epoch;
  t.completion_ev = EventId{};
  step_action(t);
}

void System::sibling_rate_changed(int node, int cpu) {
  const int sib = cpu_state(node, cpu).sibling;
  if (sib < 0) return;
  auto& scs = cpu_state(node, sib);
  if (scs.current < 0 || scs.frozen) return;
  TaskImpl& other = tasks_[static_cast<std::size_t>(scs.current)];
  if (!other.on_cpu) return;
  settle(other);
  const double new_rate = current_rate(other);
  if (new_rate == other.rate) return;
  other.rate = new_rate;
  if (other.work_left > SimDuration::zero()) reschedule_completion(other);
}

// --- Action interpretation ---------------------------------------------------------

void System::start_work(TaskImpl& t, SimDuration amount) {
  assert(t.on_cpu);
  amount += t.pending_overhead;
  t.pending_overhead = SimDuration::zero();
  if (amount <= SimDuration::zero()) amount = SimDuration{1};
  t.work_left = amount;
  t.run_since = now();
  t.rate = current_rate(t);
  sibling_rate_changed(t.node, t.cpu);  // we went from idle/spin to busy
  reschedule_completion(t);
}

void System::start_next_action(TaskImpl& t) {
  note_progress();  // an action retired: the hang watchdog re-arms
  if (action_ring_.enabled() && t.action_kind >= 0) {
    action_ring_.record({t.id.value, t.action_kind, t.action_start, now()});
    t.action_kind = -1;
  }
  while (true) {
    std::optional<Action> a = t.source->next();
    // Streaming sources change their materialized footprint on refill;
    // retained ones report a constant, so the delta is usually zero.
    const std::int64_t m = t.source->materialized_actions();
    if (m != t.materialized) {
      program_actions_ += m - t.materialized;
      t.materialized = m;
      if (program_actions_ > peak_program_actions_) {
        peak_program_actions_ = program_actions_;
      }
    }
    if (!a) {
      finish_task(t);
      return;
    }
    if (auto* call = std::get_if<Call>(&*a)) {
      call->fn();
      continue;  // zero-time action; keep pulling
    }
    if (action_ring_.enabled()) {
      t.action_kind = static_cast<std::int8_t>(a->index());
      t.action_start = now();
    }
    t.action = std::move(a);
    t.phase = 0;
    t.sr_send_injected = false;
    t.waiting_msg = false;
    t.waiting_ack = false;
    t.ack_arrived = false;
    t.pending_ack_key = 0;
    t.active_msg = MsgHandle{};
    step_action(t);
    return;
  }
}

// --- WaitAll progress counters (see TaskImpl::wa_*) ------------------------

void System::wa_mark_ready(TaskImpl& t, int pos) {
  assert(t.nbs_ && t.nbs_->wa_armed && pos >= 0);
  TaskImpl::NbState& nb = *t.nbs_;
  const auto word = static_cast<std::size_t>(pos) / 64;
  assert(word < nb.wa_ready_bits.size());
  nb.wa_ready_bits[word] |= std::uint64_t{1}
                            << (static_cast<unsigned>(pos) % 64);
}

void System::wa_clear_ready(TaskImpl& t, int pos) {
  assert(t.nbs_ && t.nbs_->wa_armed && pos >= 0);
  TaskImpl::NbState& nb = *t.nbs_;
  const auto word = static_cast<std::size_t>(pos) / 64;
  assert(word < nb.wa_ready_bits.size());
  nb.wa_ready_bits[word] &=
      ~(std::uint64_t{1} << (static_cast<unsigned>(pos) % 64));
}

int System::wa_first_ready(const TaskImpl& t) {
  assert(t.nbs_);
  const TaskImpl::NbState& nb = *t.nbs_;
  for (std::size_t w = 0; w < nb.wa_ready_bits.size(); ++w) {
    if (nb.wa_ready_bits[w] != 0) {
      return static_cast<int>(w * 64) + std::countr_zero(nb.wa_ready_bits[w]);
    }
  }
  return -1;
}

// The per-action state machine. Invoked whenever the task is on its CPU,
// unfrozen, and needs driving: action entry, work completion, wait
// satisfaction, post-SMM resume. Phase numbers feed progress_digest.
void System::step_action(TaskImpl& t) {
  assert(t.on_cpu);
  // Apply any rendezvous acks whose delivery instant has passed before the
  // poll reads the completion flags (unless this step IS such a delivery:
  // the maturation loop below already interleaves them in event order).
  if (!t.pending_acks.empty() && !t.maturing_acks) {
    mature_acks(t);
  }
  if (!t.action) {
    start_next_action(t);
    return;
  }
  t.state = TaskImpl::State::kRunning;

  if (auto* comp = std::get_if<Compute>(&*t.action)) {
    if (t.phase == 0) {
      t.phase = 1;
      start_work(t, comp->work);
    } else {
      end_action(t);
    }
    return;
  }

  if (auto* send = std::get_if<Send>(&*t.action)) {
    switch (t.phase) {
      case 0:  // pay the CPU-side injection cost
        t.phase = 1;
        start_work(t, net_.send_cpu_cost(send->bytes));
        return;
      case 1:  // hand to the wire; a rendezvous send then waits for its ack
        t.pending_ack_key = inject_message(t, send->dst_rank, send->bytes,
                                           send->tag, /*nb_handle=*/-1);
        if (t.pending_ack_key != 0) t.phase = 2;
        [[fallthrough]];
      case 2:
        await_own_ack(t);
        return;
      default:
        assert(false);
    }
  }

  if (auto* recv = std::get_if<Recv>(&*t.action)) {
    switch (t.phase) {
      case 0:  // wait for / match the message, then copy it
        if (start_recv(t, recv->src_rank, recv->tag)) t.phase = 1;
        return;
      case 1:  // copy complete
        finish_copy(t, t.active_msg);
        end_action(t);
        return;
      default:
        assert(false);
    }
  }

  if (auto* sr = std::get_if<SendRecv>(&*t.action)) {
    switch (t.phase) {
      case 0:  // send half: CPU injection cost
        t.phase = 1;
        start_work(t, net_.send_cpu_cost(sr->send_bytes));
        return;
      case 1:  // inject the send once, then progress the receive half
        if (!t.sr_send_injected) {
          t.sr_send_injected = true;
          t.pending_ack_key = inject_message(t, sr->dst_rank, sr->send_bytes,
                                             sr->send_tag, /*nb_handle=*/-1);
        }
        if (start_recv(t, sr->src_rank, sr->recv_tag)) t.phase = 2;
        return;
      case 2:  // recv copy complete
        finish_copy(t, t.active_msg);
        t.phase = 3;
        [[fallthrough]];
      case 3:  // wait for our own send's ack, if rendezvous
        await_own_ack(t);
        return;
      default:
        assert(false);
    }
  }

  if (auto* isend = std::get_if<Isend>(&*t.action)) {
    switch (t.phase) {
      case 0:  // CPU-side injection cost, as for blocking Send
        t.phase = 1;
        start_work(t, net_.send_cpu_cost(isend->bytes));
        return;
      case 1: {
        NbHandleTable::Entry& entry = t.nbs().table.open_slot(isend->handle,
                                                              /*is_send=*/true);
        entry.peer = isend->dst_rank;
        entry.ack_key = inject_message(t, isend->dst_rank, isend->bytes,
                                       isend->tag, isend->handle);
        entry.complete = entry.ack_key == 0;  // eager: complete at injection
        end_action(t);
        return;
      }
      default:
        assert(false);
    }
  }

  if (auto* irecv = std::get_if<Irecv>(&*t.action)) {
    NbHandleTable& nb_table = t.nbs().table;
    NbHandleTable::Entry& entry = nb_table.open_slot(irecv->handle,
                                                     /*is_send=*/false);
    entry.src = irecv->src_rank;
    entry.peer = irecv->src_rank;
    entry.tag = irecv->tag;
    // Match an already-arrived message immediately (late post); only
    // still-waiting receives enter the posted-by-tag index.
    if (try_match_recv(t, irecv->src_rank, irecv->tag) != nullptr) {
      entry.data_arrived = true;
      entry.msg = t.active_msg;
      t.active_msg = MsgHandle{};
    } else {
      nb_table.post_recv(irecv->handle);
    }
    end_action(t);
    return;
  }

  if (auto* wait = std::get_if<WaitAll>(&*t.action)) {
    // Not parked while actively progressing: arrivals and acks wake a
    // WaitAll only while `waiting_all` is set, so one that lands during a
    // receive copy cannot re-enter this state machine.
    t.waiting_all = false;
    TaskImpl::NbState& nb = t.nbs();
    if (!nb.wa_armed) {
      // Arm the progress counters: one walk over the handle list on entry,
      // after which completion events (acks, arrivals, copy retirements)
      // maintain them and every re-poll is O(1). The old re-poll scanned
      // the whole list each time, which made dense waitall windows (the
      // rendezvous ack storm) quadratic.
      nb.wa_armed = true;
      nb.wa_incomplete = 0;
      nb.wa_ready_bits.assign((wait->handles.size() + 63) / 64, 0);
      for (std::size_t i = 0; i < wait->handles.size(); ++i) {
        NbHandleTable::Entry* entry = nb.table.find(wait->handles[i]);
        assert(entry != nullptr && "WaitAll on unknown handle");
        entry->in_waitall = true;
        entry->wa_pos = static_cast<int>(i);
        if (entry->complete) continue;
        ++nb.wa_incomplete;
        if (!entry->is_send && entry->data_arrived) {
          wa_mark_ready(t, static_cast<int>(i));
        }
      }
    }
    if (t.phase == 1) {
      // A receive's copy just finished: complete that handle.
      NbHandleTable::Entry* entry = nb.table.find(nb.active_nb_handle);
      assert(entry != nullptr);
      entry->complete = true;
      --nb.wa_incomplete;
      finish_copy(t, entry->msg);
      nb.active_nb_handle = -1;
      t.phase = 0;
    }
    // Re-poll: charge the next arrived-but-uncopied receive, or finish.
    // First-set-bit is the first ready receive in handle-list order — the
    // same pick the full scan made.
    const int pos = wa_first_ready(t);
    if (pos >= 0) {
      const int h = wait->handles[static_cast<std::size_t>(pos)];
      NbHandleTable::Entry* entry = nb.table.find(h);
      assert(entry != nullptr && !entry->is_send && !entry->complete &&
             entry->data_arrived);
      wa_clear_ready(t, pos);
      // Progress this receive now: CPU-side copy.
      nb.active_nb_handle = h;
      t.phase = 1;
      start_copy(t, pool_.ref(entry->msg));
      return;
    }
    if (nb.wa_incomplete == 0) {
      for (const int h : wait->handles) nb.table.close(h);
      nb.wa_armed = false;
      end_action(t);
      return;
    }
    t.waiting_all = true;
    park(t);
    return;
  }

  if (auto* sleep = std::get_if<Sleep>(&*t.action)) {
    if (t.phase == 1) {
      end_action(t);
      return;
    }
    t.phase = 1;
    t.state = TaskImpl::State::kSleeping;
    stop_running(t, /*keep_on_cpu=*/false);
    engine_.schedule_after(sleep->dur, [this, id = t.id] {
      TaskImpl& task_ref = task(id);
      if (task_ref.state != TaskImpl::State::kSleeping) return;
      // Timer interrupts are deferred while the node is frozen (SMM or an
      // injected fault stall).
      if (node_in_smm(task_ref.node) || node_fault_frozen(task_ref.node)) {
        node_state(task_ref.node).deferred_wakes.push_back(task_ref.id.value);
        return;
      }
      make_ready(task_ref);
    });
    dispatch(t.node, t.cpu);
    return;
  }

  assert(false && "Call actions are consumed by start_next_action");
}

// --- step_action's shared moves ---------------------------------------------

// The current action is done: pull the next one.
void System::end_action(TaskImpl& t) {
  t.action.reset();
  start_next_action(t);
}

// Wait for a message or an ack: arm the wake for acks already owed to the
// task, then leave the CPU if the task blocks (a spinner keeps it).
void System::park(TaskImpl& t) {
  ensure_ack_wake(t);
  if (t.wait_policy == WaitPolicy::kBlock) {
    t.state = TaskImpl::State::kBlocked;
    stop_running(t, /*keep_on_cpu=*/false);
    dispatch(t.node, t.cpu);
  }
}

// Re-poll a waiter whose wait may be over: step it now if it spins on a
// running CPU, or make it ready if it blocked. A frozen spinner re-polls at
// the post-SMM resume, a preempted one at dispatch.
void System::wake(TaskImpl& t) {
  if (t.on_cpu) {
    if (!cpu_state(t.node, t.cpu).frozen) step_action(t);
  } else if (t.state == TaskImpl::State::kBlocked) {
    make_ready(t);
  }
}

// End the action once the task's own rendezvous ack is in (or none is
// owed); otherwise wait for it.
void System::await_own_ack(TaskImpl& t) {
  if (t.pending_ack_key == 0 || t.ack_arrived) {
    end_action(t);
    return;
  }
  t.waiting_ack = true;
  park(t);
}

// Match an arrived (src_rank, tag) message and start its copy (true), or
// record the wait and park (false).
bool System::start_recv(TaskImpl& t, int src_rank, int tag) {
  if (const MessageRec* msg = try_match_recv(t, src_rank, tag)) {
    start_copy(t, *msg);
    return true;
  }
  t.waiting_msg = true;
  t.wait_src = src_rank;
  t.wait_tag = tag;
  park(t);
  return false;
}

// Start the CPU-side copy of a matched message. One that landed while the
// node was frozen drains cheaper when HTT siblings are online.
void System::start_copy(TaskImpl& t, const MessageRec& msg) {
  SimDuration cost = net_.recv_cpu_cost(msg.bytes);
  if (msg.arrived_during_smm && node_htt_active(t.node)) {
    cost = scale(cost, cfg_.post_smi_drain_factor);
  }
  start_work(t, cost);
}

// A receive copy finished: count it and retire the message held in `slot`.
void System::finish_copy(TaskImpl& t, MsgHandle& slot) {
  assert(slot.valid());
  const MsgHandle h = slot;
  slot = MsgHandle{};
  t.stats.messages_received += 1;
  retire_copied(h);
}

void System::finish_task(TaskImpl& t) {
  assert(!t.stats.finished);
  // Acks may still be owed to a finishing task (an Isend it never waited
  // for): those already queued, and any its receivers send later, keep
  // their wire-time effects (route erase, payload recycle, note_progress)
  // through the wake chain.
  ensure_ack_wake(t);
  t.stats.finished = true;
  t.stats.end_time = now();
  t.state = TaskImpl::State::kDone;
  program_actions_ -= t.materialized;
  t.materialized = 0;
  stop_running(t, /*keep_on_cpu=*/false);
  --unfinished_tasks_;
  dispatch(t.node, t.cpu);
}

// --- Messaging -------------------------------------------------------------------

// Hand a send to the wire. A rendezvous-sized one gets a fresh ack key and
// a route for its completion ack (`nb_handle` is the Isend's handle, -1 for
// a blocking send); returns that key, or 0 for an eager send.
std::uint64_t System::inject_message(TaskImpl& sender, int dst_rank,
                                     std::int64_t bytes, int tag,
                                     int nb_handle) {
  assert(static_cast<std::size_t>(sender.group.value) < groups_.size());
  const auto& members = groups_[static_cast<std::size_t>(sender.group.value)];
  assert(dst_rank >= 0 && dst_rank < static_cast<int>(members.size()));
  const TaskId dst_id = members[static_cast<std::size_t>(dst_rank)];
  assert(dst_id.valid() && "destination rank not spawned");
  TaskImpl& dst = task(dst_id);

  const bool needs_ack = net_.is_rendezvous(bytes);
  const std::uint64_t ack_key = needs_ack ? next_ack_key_++ : 0;
  const MsgHandle h = pool_.alloc();
  MessageRec& msg = pool_.ref(h);
  msg.group = sender.group;
  msg.src_rank = sender.rank;
  msg.dst_rank = dst_rank;
  msg.src_node = sender.node;
  msg.dst_node = dst.node;
  msg.bytes = bytes;
  msg.tag = tag;
  msg.needs_ack = needs_ack;
  msg.ack_key = ack_key;
  msg.sender = sender.id;
  msg.xmit = net_.wire_xmit(bytes);
  if (needs_ack) {
    ack_router_.add(ack_key, AckTarget{sender.id, nb_handle, h, dst_rank, tag});
  }

  sender.stats.messages_sent += 1;
  sender.stats.bytes_sent += bytes;
  if (++in_flight_messages_ > peak_in_flight_messages_) {
    peak_in_flight_messages_ = in_flight_messages_;
  }

  if (sender.node == dst.node) {
    // Shared-memory transport: the copy is CPU work already charged to the
    // sender; the residual is a small transfer delay. Arrival during SMM
    // just lands in the unexpected queue (DMA); the frozen receiver drains
    // it later.
    engine_.schedule_after(net_.intra_transfer(bytes),
                           [this, h] { on_message_arrival(h); });
    return ack_key;
  }
  inter_node_bytes_ += bytes;
  nic_submit(sender.node, /*egress=*/true, h);
  return ack_key;
}

// --- NIC servers ---------------------------------------------------------------

System::NicServer& System::nic(int node, bool egress) {
  NodeState& ns = node_state(node);
  return egress ? ns.egress : ns.ingress;
}

void System::nic_submit(int node, bool egress, MsgHandle h) {
  nic(node, egress).queue.push_back(h);
  nic_try_serve(node, egress);
}

void System::nic_try_serve(int node, bool egress) {
  NicServer& server = nic(node, egress);
  if (server.paused() || server.active.valid() || server.queue.empty()) return;
  const MsgHandle h = server.queue.front();
  server.queue.pop_front();
  server.active = h;
  server.remaining = pool_.ref(h).xmit;
  server.since = now();
  ++server.epoch;
  server.done_ev = engine_.schedule_after(
      server.remaining, [this, node, egress, ep = server.epoch] {
        nic_service_done(node, egress, ep);
      });
}

void System::nic_service_done(int node, bool egress, std::uint64_t epoch) {
  NicServer& server = nic(node, egress);
  if (server.epoch != epoch || server.paused() || !server.active.valid()) return;
  const MsgHandle h = server.active;
  server.active = MsgHandle{};
  server.done_ev = EventId{};
  if (egress) {
    handoff_to_ingress(h);
  } else {
    // Delivered at the destination after propagation.
    engine_.schedule_after(net_.latency(),
                           [this, h] { on_message_arrival(h); });
  }
  nic_try_serve(node, egress);
}

// Bits left the source NIC: apply the link fault model, then serialize into
// the destination NIC. A dropped attempt re-enters the source egress queue
// after the retransmission timeout; a duplicated one additionally burns
// ingress service time at the destination before transport dedup eats it.
void System::handoff_to_ingress(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  ++msg.attempts;
  if (node_crashed(msg.dst_node)) {
    // The destination died while the bits were on the wire: undeliverable.
    fail_message(h);
    return;
  }
  if (link_fault_ != nullptr && !msg.ghost &&
      link_fault_->should_drop(msg.src_node, msg.dst_node)) {
    ++messages_dropped_;
    if (msg.attempts > net_.params().max_retries) {
      ++transport_failures_;  // dead link: the transport gives up
      fail_message(h);
      return;
    }
    retransmit_later(h);
    return;
  }
  nic_submit(msg.dst_node, /*egress=*/false, h);
  if (link_fault_ != nullptr && !pool_.ref(h).ghost &&
      link_fault_->should_duplicate(pool_.ref(h).src_node,
                                    pool_.ref(h).dst_node)) {
    ++messages_duplicated_;
    const MsgHandle dup_h = pool_.alloc();
    MessageRec& src = pool_.ref(h);  // alloc may have moved the slab
    MessageRec& dup = pool_.ref(dup_h);
    dup.src_node = src.src_node;
    dup.dst_node = src.dst_node;
    dup.bytes = src.bytes;
    dup.xmit = src.xmit;
    dup.ghost = true;
    if (++in_flight_messages_ > peak_in_flight_messages_) {
      peak_in_flight_messages_ = in_flight_messages_;
    }
    nic_submit(dup.dst_node, /*egress=*/false, dup_h);
  }
}

void System::retransmit_later(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  ++retransmissions_;
  // RFC 6298-style exponential backoff from the base RTO.
  SimDuration rto = net_.params().retrans_timeout;
  for (int i = 1; i < msg.attempts; ++i) {
    rto = scale(rto, net_.params().retrans_backoff);
  }
  engine_.schedule_after(rto, [this, h] {
    MessageRec* m = pool_.get(h);
    if (m == nullptr || m->failed) return;  // abandoned and recycled meanwhile
    if (node_crashed(m->src_node) || node_crashed(m->dst_node)) {
      fail_message(h);
      return;
    }
    nic_submit(m->src_node, /*egress=*/true, h);
  });
}

void System::fail_message(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  if (msg.failed || msg.arrived) return;
  msg.failed = true;
  --in_flight_messages_;
  if (msg.needs_ack) {
    // The sender's ack will never come; keep the route (marked failed) so a
    // stuck sender's diagnosis can still name its peer, but drop the record.
    if (AckTarget* route = ack_router_.find(msg.ack_key)) {
      route->failed = true;
      route->msg = MsgHandle{};
    }
  }
  pool_.release(h);
}

void System::nic_pause(int node, bool egress) {
  NicServer& server = nic(node, egress);
  if (++server.pause_depth > 1) return;  // already stopped by another cause
  server.paused_at = now();
  if (server.active.valid()) {
    server.remaining -= now() - server.since;
    if (server.remaining < SimDuration{1}) server.remaining = SimDuration{1};
    ++server.epoch;
    engine_.cancel(server.done_ev);
    server.done_ev = EventId{};
  }
}

void System::nic_resume(int node, bool egress) {
  NicServer& server = nic(node, egress);
  assert(server.paused());
  if (--server.pause_depth > 0) return;  // another cause still holds it
  if (server.active.valid()) {
    // TCP loss recovery after the stall: retransmission plus congestion-
    // window rebuild, proportional to how long the host was frozen.
    double recovery = net_.params().tcp_recovery_scale;
    if (recovery > 0.0 && node_htt_active(node)) {
      recovery *= cfg_.htt_nic_recovery_factor;
    }
    if (recovery > 0.0) {
      const SimDuration stall = now() - server.paused_at;
      server.remaining += nic_rng_.uniform_duration(
          SimDuration::zero(),
          std::max(SimDuration{1}, scale(stall, recovery)));
    }
    server.since = now();
    ++server.epoch;
    server.done_ev = engine_.schedule_after(
        server.remaining, [this, node, egress, ep = server.epoch] {
          nic_service_done(node, egress, ep);
        });
  } else {
    nic_try_serve(node, egress);
  }
}

void System::on_message_arrival(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  --in_flight_messages_;
  note_progress();
  if (msg.ghost) {
    // Transport dedup swallows injected duplicates; the ghost burned its
    // ingress wire time, so the record's job is done.
    pool_.release(h);
    return;
  }
  assert(static_cast<std::size_t>(msg.group.value) < groups_.size());
  const auto& members = groups_[static_cast<std::size_t>(msg.group.value)];
  TaskImpl& dst = task(members[static_cast<std::size_t>(msg.dst_rank)]);
  msg.arrived = true;
  msg.arrival = now();
  msg.arrived_during_smm = node_in_smm(dst.node);

  // Posted nonblocking receives match first (MPI posted-queue semantics);
  // only unmatched arrivals enter the unexpected queue.
  if (match_posted_irecv(dst, h)) {
    if (dst.waiting_all) wake(dst);
    return;
  }
  dst.unexpected.push(pool_, h);

  if (!dst.waiting_msg) return;
  if (msg.tag != dst.wait_tag) return;
  if (dst.wait_src != kAnySource && msg.src_rank != dst.wait_src) return;
  wake(dst);
}

MessageRec* System::try_match_recv(TaskImpl& t, int src_rank, int tag) {
  const MsgHandle h = t.unexpected.match(pool_, src_rank, tag, sched_policy_);
  if (!h.valid()) return nullptr;
  t.waiting_msg = false;
  t.active_msg = h;
  return &pool_.ref(h);
}

// A matched message's CPU-side copy finished: send the rendezvous ack if one
// is owed, then recycle the record — immediately for eager messages, or at
// the ack's completion for rendezvous ones (kConsumed holds the routing
// fields the ack path still reads).
void System::retire_copied(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  if (msg.needs_ack) {
    deliver_ack(msg);
    if (ack_router_.find(msg.ack_key) != nullptr) {
      msg.state = MessageRec::State::kConsumed;
      return;
    }
    // The sender was killed and its route erased: the ack will land on
    // nobody, so nothing holds the record past this point.
  }
  pool_.release(h);
}

bool System::match_posted_irecv(TaskImpl& t, MsgHandle h) {
  if (!t.nbs_ || !t.nbs_->table.any_open_recv()) return false;
  NbHandleTable& nb_table = t.nbs_->table;
  MessageRec& msg = pool_.ref(h);
  // The posted-by-tag index holds exactly the open, unmatched receives (a
  // receive can only complete after its data arrives, so !data_arrived
  // implies !complete) and yields the lowest id — the same handle the old
  // ascending full-table scan picked.
  const int id = nb_table.match_posted(msg.src_rank, msg.tag);
  if (id < 0) return false;
  NbHandleTable::Entry* hit = nb_table.find(id);
  assert(hit != nullptr && !hit->is_send && !hit->complete);
  nb_table.unpost(id);
  hit->data_arrived = true;
  hit->msg = h;
  msg.state = MessageRec::State::kMatched;
  if (hit->in_waitall) wa_mark_ready(t, hit->wa_pos);
  return true;
}

void System::deliver_ack(const MessageRec& msg) {
  // Control traffic: tiny, skips the queue servers (a real NIC prioritizes
  // pure ACKs and their wire time is negligible), so its delivery instant
  // is fixed here; it matures lazily (see "Lazy ack maturation" below). If
  // the sender's node is frozen when it lands, the spinning sender picks it
  // up at SMM exit.
  const SimDuration wire = msg.src_node == msg.dst_node
                               ? net_.intra_transfer(kAckBytes)
                               : net_.latency() + net_.wire_xmit(kAckBytes);
  queue_lazy_ack(task(msg.sender), msg.ack_key, now() + wire);
}

// The ack's effects. `allow_wake` is false when the owning sender is being
// stepped right now (lazy maturation at the top of its own poll): the
// ongoing poll reads the flags itself, and waking would re-enter its state
// machine.
void System::apply_ack(std::uint64_t ack_key, bool allow_wake) {
  note_progress();
  // O(1) hash route: ack keys are globally unique per System.
  AckTarget* route = ack_router_.find(ack_key);
  if (route == nullptr) return;  // sender was killed; route already erased
  const AckTarget target = *route;
  ack_router_.erase(ack_key);
  // The consumed rendezvous payload was held only for this moment.
  if (target.msg.valid()) {
    assert(pool_.ref(target.msg).state == MessageRec::State::kConsumed);
    pool_.release(target.msg);
  }
  TaskImpl& t = task(target.task);
  if (target.nb_handle >= 0) {
    // Nonblocking rendezvous send completion.
    if (NbHandleTable::Entry* entry =
            t.nbs_ ? t.nbs_->table.find(target.nb_handle) : nullptr) {
      entry->complete = true;
      entry->ack_key = 0;
      if (entry->in_waitall) {
        assert(t.nbs_->wa_armed);
        --t.nbs_->wa_incomplete;
      }
    }
    if (allow_wake && t.waiting_all) wake(t);
    return;
  }
  if (t.state == TaskImpl::State::kDone) return;
  if (t.pending_ack_key != ack_key) return;
  t.ack_arrived = true;
  t.pending_ack_key = 0;
  if (!t.waiting_ack) return;  // arrived before the task started waiting
  t.waiting_ack = false;
  if (allow_wake) wake(t);  // else the ongoing poll continues from the flag
}

// --- Lazy ack maturation ----------------------------------------------------
//
// deliver_ack records {due, key} on the sender instead of scheduling an
// event: acks skip the NIC servers and never consult the link fault model,
// so nothing can move `due`. An ack's only observable effects are the
// sender-side completion flags, which the sender reads at a poll. A parked
// sender gets one wake event at the earliest due instant; a busy sender
// absorbs its acks into its next poll (the ack storm's senders are almost
// always mid-copy, so most acks cost no event). A finished or killed sender
// never polls again, so its acks always go through the wake: the route and
// payload are released, and the hang watchdog sees that progress, at each
// due instant. The rule fixes same-instant tie order (DESIGN.md §11);
// AckOrderGoldenTest pins it.

void System::queue_lazy_ack(TaskImpl& sender, std::uint64_t key, SimTime due) {
  sender.pending_acks.push_back(
      TaskImpl::PendingAck{due, sender.pending_ack_seq++, key});
  if (sender.waiting_msg || sender.waiting_ack || sender.waiting_all ||
      sender.state == TaskImpl::State::kDone) {
    ensure_ack_wake(sender);
  }
}

// Apply every pending ack whose delivery instant has passed, in delivery
// order: due, then queue order.
void System::mature_acks(TaskImpl& t, bool allow_wake) {
  assert(!t.maturing_acks);
  t.maturing_acks = true;
  while (!t.pending_acks.empty()) {
    std::size_t best = t.pending_acks.size();
    for (std::size_t i = 0; i < t.pending_acks.size(); ++i) {
      const TaskImpl::PendingAck& p = t.pending_acks[i];
      if (p.due > now()) continue;
      if (best == t.pending_acks.size() ||
          p.due < t.pending_acks[best].due ||
          (p.due == t.pending_acks[best].due &&
           p.seq < t.pending_acks[best].seq)) {
        best = i;
      }
    }
    if (best == t.pending_acks.size()) break;
    const std::uint64_t key = t.pending_acks[best].key;
    t.pending_acks[best] = t.pending_acks.back();
    t.pending_acks.pop_back();
    apply_ack(key, allow_wake);
  }
  t.maturing_acks = false;
}

// Arm (or tighten) the one wake event that applies the task's acks while
// it is parked or has ended.
void System::ensure_ack_wake(TaskImpl& t) {
  if (t.pending_acks.empty()) return;
  SimTime due = t.pending_acks[0].due;
  for (const TaskImpl::PendingAck& p : t.pending_acks) {
    if (p.due < due) due = p.due;
  }
  if (t.ack_wake_ev.valid() && t.ack_wake_due <= due) return;
  engine_.cancel(t.ack_wake_ev);
  t.ack_wake_due = due;
  t.ack_wake_ev = engine_.schedule_at(due, [this, id = t.id] {
    TaskImpl& task_ref = task(id);
    task_ref.ack_wake_ev = EventId{};
    mature_acks(task_ref, /*allow_wake=*/true);
    ensure_ack_wake(task_ref);  // later dues may remain
  });
}

// --- SMM ---------------------------------------------------------------------------

bool System::node_in_smm(int node) const {
  return node_state(node).in_smm;
}

bool System::node_htt_active(int node) const {
  const Node& n = cluster_.node(node);
  if (n.spec().threads_per_core < 2) return false;
  for (int i = 0; i < n.cpu_count(); ++i) {
    const auto& cpu = n.cpu(i);
    if (cpu.online && cpu.sibling >= 0 && n.is_online(cpu.sibling)) return true;
  }
  return false;
}

void System::smm_enter(int node) {
  NodeState& ns = node_state(node);
  assert(!ns.in_smm && "nested SMM entry");
  ns.in_smm = true;
  ns.freeze_start = now();
  // TCP stalls with the host: neither direction of the NIC makes progress.
  nic_pause(node, /*egress=*/true);
  nic_pause(node, /*egress=*/false);
  freeze_online_cpus(node);
}

void System::smm_exit(int node, const SmmInterval& interval) {
  NodeState& ns = node_state(node);
  assert(ns.in_smm);
  ns.in_smm = false;
  smm_acct_.record(interval);
  nic_resume(node, /*egress=*/true);
  nic_resume(node, /*egress=*/false);
  if (ns.fault_frozen || ns.crashed) {
    // An injected fault stall outlasts the SMI (or the node died inside
    // it): keep the CPUs down — fault_freeze_exit resumes them. The hung
    // node gets no refill or OS-view charge for this interval; nothing on
    // it observed the handler return.
    ns.last_smm_exit = now();
    return;
  }

  const SimDuration frozen_for = now() - ns.freeze_start;
  // The state worth re-warming after SMM is bounded by what was rebuilt
  // since the previous SMM interval: at high SMI rates caches never get
  // fully hot, so the per-SMI warm-up shrinks with the gap. The quadratic
  // damping reflects that a barely-warm cache both has less to lose and
  // loses it more cheaply (the lines it still needs are the recent ones).
  const double warm_fraction = [&] {
    if (ns.last_smm_exit < SimTime::zero()) return 1.0;
    const SimDuration warm = ns.freeze_start - ns.last_smm_exit;
    const double f = warm / (warm + frozen_for);
    return f * f;
  }();
  ns.last_smm_exit = now();
  const SimDuration effective_residency = scale(frozen_for, warm_fraction);
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (!topo.is_online(i)) continue;
    CpuState& cs = cpu_state(node, i);
    cs.frozen = false;
    if (cs.current >= 0) {
      TaskImpl& t = tasks_[static_cast<std::size_t>(cs.current)];
      // The OS never saw the freeze: it keeps charging the task.
      t.stats.os_view_cpu_time += frozen_for;
      t.stats.smm_stolen_time += frozen_for;
      t.stats.smm_hits += 1;
      apply_refill(t, refill_rng_, effective_residency);
      begin_running(t);
      // The freeze cancelled the preemption timer; restore timeslicing for
      // oversubscribed CPUs (a spinning waiter must not starve its queue).
      arm_quantum(node, i);
    }
  }
  release_node(node);
}

void System::freeze_cpu(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  cs.frozen = true;
  if (cs.quantum_ev.valid()) {
    engine_.cancel(cs.quantum_ev);
    cs.quantum_ev = EventId{};
  }
  if (cs.current >= 0) {
    TaskImpl& t = tasks_[static_cast<std::size_t>(cs.current)];
    settle(t);
    ++t.epoch;  // invalidate any scheduled completion
    engine_.cancel(t.completion_ev);
    t.completion_ev = EventId{};
  }
}

void System::freeze_online_cpus(int node) {
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    // A CPU already stopped by a single-CPU preemption stays as it is.
    if (topo.is_online(i) && !cpu_state(node, i).frozen) freeze_cpu(node, i);
  }
}

void System::release_node(int node) {
  NodeState& ns = node_state(node);
  const std::vector<std::int32_t> wakes = std::move(ns.deferred_wakes);
  ns.deferred_wakes.clear();
  for (const std::int32_t idx : wakes) {
    TaskImpl& t = tasks_[static_cast<std::size_t>(idx)];
    if (t.state == TaskImpl::State::kSleeping) make_ready(t);
  }
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (topo.is_online(i)) dispatch(node, i);
  }
}

void System::preempt_cpu(int node, int cpu) {
  assert(!node_in_smm(node) && "use SMM entry for whole-node freezes");
  assert(!cpu_state(node, cpu).frozen && "CPU already preempted");
  freeze_cpu(node, cpu);
}

void System::resume_cpu(int node, int cpu) {
  if (node_in_smm(node)) return;  // SMM superseded; its exit restores the CPU
  auto& cs = cpu_state(node, cpu);
  if (!cs.frozen) return;  // already restored by an SMM exit
  cs.frozen = false;
  if (cs.current >= 0) {
    // OS-level noise is visible to the kernel: unlike SMM it is NOT charged
    // to the victim task's CPU time, so no os_view adjustment here.
    begin_running(tasks_[static_cast<std::size_t>(cs.current)]);
    arm_quantum(node, cpu);  // the preemption timer was cancelled at freeze
  }
  dispatch(node, cpu);
}

void System::apply_refill(TaskImpl& t, Rng& rng, SimDuration frozen_for) {
  if (cfg_.machine.hot_set_bytes <= 0) return;  // nothing to re-warm
  // How much of the hot state the handler actually evicted: a millisecond
  // handler touches almost nothing; a long scan flushes everything.
  const double evicted =
      std::min(1.0, frozen_for / cfg_.smm_full_flush_residency);
  SimDuration refill = scale(
      refill_work(t.profile, cfg_.machine.hot_set_bytes,
                  cfg_.machine.cache_refill_bw, sibling_busy(t), rng),
      evicted);
  if (node_htt_active(t.node)) {
    refill = scale(refill, cfg_.refill_htt_node_multiplier);
    // Residency-proportional warm-up with twice the hardware contexts
    // competing for the same caches (see SystemConfig::htt_refill_fraction),
    // scaled by how much hot state this task actually keeps (a register-
    // resident spin loop loses nothing; a streaming kernel loses little).
    // The per-run factor models how (un)lucky this run's post-SMI thread
    // placement is — the paper's HTT variance at high SMI rates.
    if (cfg_.htt_refill_fraction > 0 && t.profile.hot_set_fraction > 0) {
      const double hot = std::min(1.0, t.profile.hot_set_fraction);
      const double jittered = cfg_.htt_refill_fraction * hot * evicted *
                              htt_refill_run_factor_ * rng.uniform(0.7, 1.3);
      refill += scale(frozen_for, jittered);
    }
  }
  t.stats.refill_overhead += refill;
  if (t.work_left > SimDuration::zero()) {
    t.work_left += refill;
  } else {
    t.pending_overhead += refill;
  }
}

// --- Fault injection hooks ---------------------------------------------------------

const char* to_string(FaultRecord::Kind kind) {
  switch (kind) {
    case FaultRecord::Kind::kFreeze: return "FREEZE";
    case FaultRecord::Kind::kCrash: return "CRASH";
    case FaultRecord::Kind::kLinkDown: return "LINKDOWN";
    case FaultRecord::Kind::kSlowNode: return "SLOW";
  }
  return "?";
}

void System::close_fault_record(FaultRecord::Kind kind, int node) {
  for (auto it = fault_log_.rbegin(); it != fault_log_.rend(); ++it) {
    if (it->kind == kind && it->node == node && it->end < SimTime::zero()) {
      it->end = now();
      return;
    }
  }
  assert(false && "closing a fault interval that was never opened");
}

bool System::node_fault_frozen(int node) const {
  return node_state(node).fault_frozen;
}

bool System::node_crashed(int node) const {
  return node_state(node).crashed;
}

void System::fault_freeze_enter(int node) {
  NodeState& ns = node_state(node);
  if (ns.crashed) return;
  assert(!ns.fault_frozen && "nested fault freeze");
  ns.fault_frozen = true;
  fault_log_.push_back({FaultRecord::Kind::kFreeze, node, now(), SimTime{-1}});
  nic_pause(node, /*egress=*/true);
  nic_pause(node, /*egress=*/false);
  if (ns.in_smm) return;  // CPUs already down; the freeze merely outlasts SMM
  freeze_online_cpus(node);
}

void System::fault_freeze_exit(int node) {
  NodeState& ns = node_state(node);
  if (ns.crashed) return;  // the crash superseded the stall
  assert(ns.fault_frozen);
  ns.fault_frozen = false;
  close_fault_record(FaultRecord::Kind::kFreeze, node);
  nic_resume(node, /*egress=*/true);
  nic_resume(node, /*egress=*/false);
  if (ns.in_smm) return;  // SMM still holds the node; its exit resumes CPUs
  // Unlike smm_exit there is no refill penalty and no OS-view charge: a
  // hang stops the kernel's clocks along with everything else.
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (!topo.is_online(i)) continue;
    CpuState& cs = cpu_state(node, i);
    cs.frozen = false;
    if (cs.current >= 0) {
      begin_running(tasks_[static_cast<std::size_t>(cs.current)]);
      arm_quantum(node, i);
    }
  }
  release_node(node);
}

void System::kill_task(TaskImpl& t) {
  assert(!t.stats.finished && !t.stats.failed);
  auto& cs = cpu_state(t.node, t.cpu);
  if (t.on_cpu) {
    if (!cs.frozen) settle(t);  // frozen tasks were settled at freeze time
    assert(cs.current == t.id.value);
    cs.current = -1;
    t.on_cpu = false;
    if (cs.quantum_ev.valid()) {
      engine_.cancel(cs.quantum_ev);
      cs.quantum_ev = EventId{};
    }
  }
  if (t.queued) {
    auto& q = cs.runqueue;
    q.erase(std::remove(q.begin(), q.end(), t.id.value), q.end());
    t.queued = false;
  }
  ++t.epoch;
  engine_.cancel(t.completion_ev);
  t.completion_ev = EventId{};
  t.state = TaskImpl::State::kDone;
  t.stats.failed = true;
  t.stats.end_time = now();
  t.work_left = SimDuration::zero();
  t.pending_overhead = SimDuration::zero();
  t.action.reset();
  t.action_kind = -1;
  program_actions_ -= t.materialized;
  t.materialized = 0;
  t.waiting_msg = t.waiting_ack = t.waiting_all = false;
  if (t.nbs_) t.nbs_->wa_armed = false;
  // Release every pool record this task holds and unhook its ack routes:
  // the message in mid-copy, matched-but-uncopied nonblocking receives,
  // queued unexpected traffic, and outstanding rendezvous-send routes
  // (whose acks must now fall on the floor, not on a recycled slot). A
  // routed payload is released only once it is kConsumed — in any other
  // state the wire or the receiving task still owns it, and the receiver's
  // retire_copied path will find the route gone and recycle it then.
  auto drop_route = [&](std::uint64_t key) {
    if (key == 0) return;
    const AckTarget* route = ack_router_.find(key);
    if (route == nullptr) return;
    if (MessageRec* m = pool_.get(route->msg);
        m != nullptr && m->state == MessageRec::State::kConsumed) {
      pool_.release(route->msg);
    }
    ack_router_.erase(key);
  };
  if (t.active_msg.valid()) {
    pool_.release(t.active_msg);
    t.active_msg = MsgHandle{};
  }
  if (t.nbs_) {
    t.nbs_->table.for_each_open([&](int, NbHandleTable::Entry& entry) {
      if (entry.data_arrived && entry.msg.valid()) pool_.release(entry.msg);
      if (entry.is_send) drop_route(entry.ack_key);
    });
    t.nbs_->table.clear();
  }
  drop_route(t.pending_ack_key);
  t.pending_ack_key = 0;
  t.unexpected.clear(pool_);
  // Pending lazy acks stay queued: their routes are gone (drop_route), but
  // the wake chain still fires at each delivery instant, so the watchdog
  // sees that progress.
  ensure_ack_wake(t);
  --unfinished_tasks_;
  ++failed_tasks_;
  note_progress();
}

void System::crash_node(int node) {
  NodeState& ns = node_state(node);
  if (ns.crashed) return;
  ns.crashed = true;
  if (ns.fault_frozen) {
    ns.fault_frozen = false;
    close_fault_record(FaultRecord::Kind::kFreeze, node);
  }
  fault_log_.push_back({FaultRecord::Kind::kCrash, node, now(), now()});
  // The NICs go silent forever; traffic parked at them is undeliverable.
  nic_pause(node, /*egress=*/true);
  nic_pause(node, /*egress=*/false);
  for (NicServer* server : {&ns.egress, &ns.ingress}) {
    if (server->active.valid()) {
      fail_message(server->active);
      server->active = MsgHandle{};
      ++server->epoch;
      engine_.cancel(server->done_ev);
      server->done_ev = EventId{};
    }
    for (const MsgHandle h : server->queue) fail_message(h);
    server->queue.clear();
  }
  // Fail-stop: every task placed here dies where it stands.
  for (TaskImpl& t : tasks_) {
    if (t.node != node || t.stats.finished || t.stats.failed) continue;
    kill_task(t);
  }
  ns.deferred_wakes.clear();
}

void System::set_node_fault_rate(int node, double scale) {
  assert(scale > 0.0 && "a zero rate is a freeze, not a slow node");
  double& slot = fault_rate_.at(static_cast<std::size_t>(node));
  if (slot == scale) return;
  if (slot == 1.0) {
    fault_log_.push_back(
        {FaultRecord::Kind::kSlowNode, node, now(), SimTime{-1}});
  } else if (scale == 1.0) {
    close_fault_record(FaultRecord::Kind::kSlowNode, node);
  }
  slot = scale;
  if (node_state(node).crashed) return;
  // Re-pace everything currently executing on the node.
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (!topo.is_online(i)) continue;
    auto& cs = cpu_state(node, i);
    if (cs.frozen || cs.current < 0) continue;
    TaskImpl& t = tasks_[static_cast<std::size_t>(cs.current)];
    if (!t.on_cpu) continue;
    settle(t);
    const double new_rate = current_rate(t);
    if (new_rate == t.rate) continue;
    t.rate = new_rate;
    if (t.work_left > SimDuration::zero()) reschedule_completion(t);
  }
}

void System::set_link_down(int node, bool down) {
  if (node_state(node).crashed) return;
  if (down) {
    fault_log_.push_back(
        {FaultRecord::Kind::kLinkDown, node, now(), SimTime{-1}});
    nic_pause(node, /*egress=*/true);
    nic_pause(node, /*egress=*/false);
  } else {
    close_fault_record(FaultRecord::Kind::kLinkDown, node);
    nic_resume(node, /*egress=*/true);
    nic_resume(node, /*egress=*/false);
  }
}

// --- Running -----------------------------------------------------------------------

void System::validate() const {
  auto fail = [](const std::string& what) {
    throw std::logic_error("System::validate: " + what);
  };
  // CPU <-> task cross-references, and the two facts the flat per-CPU
  // array relies on: each entry's sibling copy matches the topology, and
  // no offline CPU holds a current task (so sibling_busy may read an
  // offline sibling's empty `current` instead of its online flag).
  if (cpus_.size() != static_cast<std::size_t>(cluster_.node_count()) *
                          static_cast<std::size_t>(cpus_per_node_)) {
    fail("per-CPU array does not cover every node's CPUs");
  }
  for (int n = 0; n < cluster_.node_count(); ++n) {
    const NodeState& ns = node_state(n);
    const Node& topo = cluster_.node(n);
    if (topo.cpu_count() != cpus_per_node_) {
      fail("node " + std::to_string(n) + " CPU count disagrees with the per-CPU array");
    }
    for (int c = 0; c < topo.cpu_count(); ++c) {
      const CpuState& cs = cpu_state(n, c);
      if (cs.sibling != topo.cpu(c).sibling) {
        fail("cpu " + std::to_string(n) + "/" + std::to_string(c) +
             " caches sibling " + std::to_string(cs.sibling) +
             ", topology says " + std::to_string(topo.cpu(c).sibling));
      }
      if (cs.current >= 0) {
        const TaskImpl& t = tasks_[static_cast<std::size_t>(cs.current)];
        if (!t.on_cpu || t.node != n || t.cpu != c) {
          fail("cpu " + std::to_string(n) + "/" + std::to_string(c) +
               " current task '" + t.name + "' does not point back");
        }
        if (!topo.is_online(c)) fail("offline CPU has a current task");
      }
      for (const std::int32_t idx : cs.runqueue) {
        const TaskImpl& t = tasks_[static_cast<std::size_t>(idx)];
        if (!t.queued || t.on_cpu || t.node != n || t.cpu != c) {
          fail("runqueue entry '" + t.name + "' state mismatch");
        }
      }
      if (ns.in_smm && topo.is_online(c) && !cs.frozen) {
        fail("node in SMM but CPU not frozen");
      }
    }
  }
  // Task-side invariants.
  for (const TaskImpl& t : tasks_) {
    if (t.stats.finished) {
      if (t.on_cpu || t.queued || t.work_left > SimDuration::zero()) {
        fail("finished task '" + t.name + "' retains execution state");
      }
      if (t.stats.os_view_cpu_time <
          t.stats.true_cpu_time + t.stats.smm_stolen_time - SimDuration{1}) {
        fail("ledger mismatch for '" + t.name + "'");
      }
    }
    if (t.on_cpu && t.queued) fail("task '" + t.name + "' both on CPU and queued");
    if (t.on_cpu) {
      if (cpu_state(t.node, t.cpu).current != t.id.value) {
        fail("task '" + t.name + "' thinks it is current but is not");
      }
    }
  }
  // Transport invariants: the pool's bookkeeping is sound, the in-flight
  // counter matches the kTransit population, the per-task unexpected queues
  // are structurally valid and account for every kUnexpected record, and
  // every consumed-but-retained record is awaiting a routed ack.
  pool_.check_invariants();
  if (static_cast<std::int64_t>(pool_.live_in_state(
          MessageRec::State::kTransit)) != in_flight_messages_) {
    fail("in-flight counter disagrees with the pool's kTransit population");
  }
  std::size_t unexpected_total = 0;
  for (const TaskImpl& t : tasks_) {
    t.unexpected.check_invariants(pool_);
    unexpected_total += t.unexpected.size();
  }
  if (unexpected_total != pool_.live_in_state(MessageRec::State::kUnexpected)) {
    fail("unexpected queues do not cover the pool's kUnexpected records");
  }
  if (in_flight_messages_ > peak_in_flight_messages_) {
    fail("in-flight counter exceeds its recorded peak");
  }
  const std::size_t consumed =
      pool_.live_in_state(MessageRec::State::kConsumed);
  if (consumed > ack_router_.size()) {
    fail("kConsumed records outnumber outstanding ack routes");
  }
}

TransportStats System::transport_stats() const {
  TransportStats s;
  s.messages_allocated = pool_.total_allocated();
  s.pool_live = static_cast<std::int64_t>(pool_.live());
  s.pool_capacity = static_cast<std::int64_t>(pool_.capacity());
  s.pool_peak_live = static_cast<std::int64_t>(pool_.peak_live());
  s.peak_in_flight = peak_in_flight_messages_;
  s.ack_routes = static_cast<std::int64_t>(ack_router_.size());
  return s;
}

std::uint64_t System::progress_digest() const {
  // See the header contract: a stable digest of control state, transport
  // counters, and the pending-event time multiset. Excluded on purpose:
  // event seqs, ack keys, and arrival_seq values (numbering isomorphisms
  // that differ between commuted-but-equivalent schedules) and pool/slab
  // capacities (allocation-order artifacts).
  Fnv64 h;
  h.mix(static_cast<std::uint64_t>(now().ns()));
  h.mix(static_cast<std::uint64_t>(unfinished_tasks_));
  for (const TaskImpl& t : tasks_) {
    h.mix_signed(t.id.value);
    h.mix(static_cast<std::uint64_t>(t.state));
    h.mix(static_cast<std::uint64_t>(t.phase));
    h.mix((t.stats.finished ? 1u : 0u) | (t.stats.failed ? 2u : 0u) |
          (t.waiting_msg ? 4u : 0u) | (t.waiting_ack ? 8u : 0u) |
          (t.waiting_all ? 16u : 0u) | (t.on_cpu ? 32u : 0u) |
          (t.queued ? 64u : 0u) | (t.ack_arrived ? 128u : 0u) |
          (t.action.has_value() ? 256u : 0u));
    h.mix_signed(t.wait_src);
    h.mix_signed(t.wait_tag);
    h.mix(static_cast<std::uint64_t>(t.work_left.ns()));
    h.mix(t.stats.messages_sent);
    h.mix(t.stats.messages_received);
    h.mix(static_cast<std::uint64_t>(t.stats.bytes_sent));
    h.mix(static_cast<std::uint64_t>(t.pending_acks.size()));
    // Unexpected-queue CONTENT in arrival order (relative order matters for
    // future matches; absolute arrival_seq values do not).
    h.mix(static_cast<std::uint64_t>(t.unexpected.size()));
    t.unexpected.for_each_arrival(pool_, [&h](const MessageRec& msg) {
      h.mix_signed(msg.src_rank);
      h.mix_signed(msg.tag);
      h.mix(static_cast<std::uint64_t>(msg.bytes));
    });
    // An absent nb box hashes exactly like a constructed-but-empty table:
    // count 0, no entries.
    h.mix(static_cast<std::uint64_t>(t.nbs_ ? t.nbs_->table.open_count() : 0));
    if (t.nbs_)
      t.nbs_->table.for_each_open([&h](int id,
                                       const NbHandleTable::Entry& entry) {
      h.mix_signed(id);
      h.mix((entry.is_send ? 1u : 0u) | (entry.complete ? 2u : 0u) |
            (entry.data_arrived ? 4u : 0u) | (entry.in_waitall ? 8u : 0u));
      h.mix_signed(entry.src);
      h.mix_signed(entry.tag);
      h.mix_signed(entry.peer);
    });
  }
  h.mix(static_cast<std::uint64_t>(messages_dropped_));
  h.mix(static_cast<std::uint64_t>(messages_duplicated_));
  h.mix(static_cast<std::uint64_t>(retransmissions_));
  h.mix(static_cast<std::uint64_t>(transport_failures_));
  h.mix(static_cast<std::uint64_t>(inter_node_bytes_));
  h.mix(static_cast<std::uint64_t>(in_flight_messages_));
  // The pending-event schedule: without it, states whose counters coincide
  // but whose futures differ (e.g. the same fault at two jitter offsets,
  // neither fired yet) would falsely collapse in the memo.
  h.mix(engine_.pending_time_digest());
  return h.value();
}

bool System::all_unfinished_comm_waiting() const {
  for (const TaskImpl& t : tasks_) {
    if (t.stats.finished || t.stats.failed) continue;
    if (!(t.waiting_msg || t.waiting_ack || t.waiting_all)) return false;
  }
  return true;
}

RunResult System::diagnose(RunStatus status) const {
  RunResult result;
  RunDiagnosis& d = result.diagnosis;
  d.sim_now = now();
  d.failed_tasks = failed_tasks_;
  d.in_flight_messages = in_flight_messages_;

  auto peer_of = [&](const TaskImpl& t, int rank) -> const TaskImpl* {
    if (rank < 0 || !t.group.valid()) return nullptr;
    const auto& members = groups_[static_cast<std::size_t>(t.group.value)];
    if (static_cast<std::size_t>(rank) >= members.size()) return nullptr;
    const TaskId id = members[static_cast<std::size_t>(rank)];
    return id.valid() ? &task(id) : nullptr;
  };

  // Wait-for graph over task indices: an edge u -> v means u cannot make
  // progress until v acts (sends the awaited message, consumes the
  // rendezvous payload, or completes a handle's transfer).
  std::vector<std::vector<std::int32_t>> edges(tasks_.size());
  auto add_edge = [&](const TaskImpl& from, const TaskImpl* to) {
    if (to != nullptr && !to->stats.finished && !to->stats.failed) {
      edges[static_cast<std::size_t>(from.id.value)].push_back(to->id.value);
    }
  };

  for (const TaskImpl& t : tasks_) {
    if (t.stats.finished || t.stats.failed) continue;
    RankDiagnosis r;
    r.task = t.id;
    r.name = t.name;
    r.node = t.node;
    r.rank = t.rank;
    r.unexpected_depth = t.unexpected.size();
    // Sample what HAS arrived but failed to match (arrival order): the key
    // evidence for diagnosing an ANY_SOURCE wedge, where the receive the
    // user expected to fire was satisfied by a different sender earlier.
    t.unexpected.for_each_arrival(pool_, [&](const MessageRec& msg) {
      if (r.unexpected_sample.size() >= kDiagnosisSampleCap) return;
      r.unexpected_sample.push_back(
          QueuedMessage{msg.src_rank, msg.tag, msg.bytes});
    });
    if (t.nbs_)
      t.nbs_->table.for_each_open([&](int id,
                                      const NbHandleTable::Entry& entry) {
      if (entry.complete) return;
      ++r.incomplete_handles;
      if (!entry.is_send) ++r.posted_recvs;
      if (r.pending_handles.size() < kDiagnosisSampleCap) {
        r.pending_handles.push_back(PendingHandle{
            id, entry.is_send, entry.is_send ? entry.peer : entry.src,
            entry.tag, !entry.is_send && entry.src == kAnySource});
      }
    });
    if (t.waiting_msg) {
      r.op = BlockedOp::kRecv;
      r.peer_rank = t.wait_src;
      r.tag = t.wait_tag;
      r.any_source = t.wait_src == kAnySource;
      if (t.wait_src == kAnySource) {
        // Any of the group could unblock us; conservatively depend on all.
        if (t.group.valid()) {
          for (const TaskId id :
               groups_[static_cast<std::size_t>(t.group.value)]) {
            if (id.valid() && !(id == t.id)) add_edge(t, &task(id));
          }
        }
      } else {
        const TaskImpl* p = peer_of(t, t.wait_src);
        r.peer_failed = p != nullptr && p->stats.failed;
        add_edge(t, p);
      }
    } else if (t.waiting_ack) {
      r.op = BlockedOp::kAckWait;
      // The ack comes from whoever consumes our rendezvous payload: the ack
      // route remembers the peer (rank, tag) even after the payload record
      // itself has been recycled.
      if (const AckTarget* route = ack_router_.find(t.pending_ack_key)) {
        r.peer_rank = route->dst_rank;
        r.tag = route->tag;
        const TaskImpl* p = peer_of(t, route->dst_rank);
        r.peer_failed = p != nullptr && p->stats.failed;
        add_edge(t, p);
      }
    } else if (t.waiting_all) {
      r.op = BlockedOp::kWaitAll;
      if (t.nbs_)
        t.nbs_->table.for_each_open([&](int, const NbHandleTable::Entry& entry) {
        if (entry.complete) return;
        if (r.peer_rank < 0) r.peer_rank = entry.peer;
        const TaskImpl* p = peer_of(t, entry.peer);
        if (r.peer_rank == entry.peer) {
          r.peer_failed = p != nullptr && p->stats.failed;
        }
        add_edge(t, p);
      });
    } else if (t.state == TaskImpl::State::kSleeping) {
      r.op = BlockedOp::kSleep;
    }
    d.ranks.push_back(std::move(r));
  }

  // Cycle detection (DFS, three colours). A cycle proves deadlock; report
  // it as task ids with the entry repeated at the end.
  std::vector<int> color(tasks_.size(), 0);
  std::vector<std::int32_t> path;
  // smilint: allow(std-function) reason=recursive diagnosis DFS; runs once per failed run, never on the event hot path
  const std::function<bool(std::int32_t)> dfs = [&](std::int32_t u) -> bool {
    color[static_cast<std::size_t>(u)] = 1;
    path.push_back(u);
    for (const std::int32_t v : edges[static_cast<std::size_t>(u)]) {
      if (color[static_cast<std::size_t>(v)] == 1) {
        auto it = std::find(path.begin(), path.end(), v);
        for (; it != path.end(); ++it) d.cycle.push_back(TaskId{*it});
        d.cycle.push_back(TaskId{v});
        return true;
      }
      if (color[static_cast<std::size_t>(v)] == 0 && dfs(v)) return true;
    }
    color[static_cast<std::size_t>(u)] = 2;
    path.pop_back();
    return false;
  };
  for (const TaskImpl& t : tasks_) {
    if (t.stats.finished || t.stats.failed) continue;
    if (color[static_cast<std::size_t>(t.id.value)] == 0 && dfs(t.id.value)) {
      break;
    }
  }
  if (status == RunStatus::kHang && !d.cycle.empty()) {
    status = RunStatus::kDeadlock;  // the watchdog fired on a provable cycle
  }
  result.status = status;
  result.peak_in_flight_messages = peak_in_flight_messages_;
  result.peak_program_actions = peak_program_actions_;
  return result;
}

RunResult System::try_run() {
  while (unfinished_tasks_ > 0) {
    if (!engine_.step()) {
      // No pending events but tasks remain: nothing can ever wake them.
      return diagnose(RunStatus::kDeadlock);
    }
    if (now() - SimTime::zero() > cfg_.max_sim_time) {
      return diagnose(RunStatus::kMaxSimTime);
    }
    if (cfg_.hang_timeout > SimDuration::zero() &&
        now() - last_progress_ > cfg_.hang_timeout &&
        in_flight_messages_ == 0 && all_unfinished_comm_waiting()) {
      // Nothing on the wire, every survivor parked in communication, and
      // no action has retired for hang_timeout of simulated time: stuck.
      // (Spin-waiters keep generating quantum events, so the event queue
      // alone cannot distinguish this from forward progress.)
      return diagnose(RunStatus::kHang);
    }
  }
  RunResult result;
  result.peak_in_flight_messages = peak_in_flight_messages_;
  result.peak_program_actions = peak_program_actions_;
  return result;
}

void System::run() {
  const RunResult result = try_run();
  if (!result.ok()) {
    throw SimulationError(result.status,
                          "smilab::System::run: " + result.to_string());
  }
}

bool System::run_for(SimDuration d) { return engine_.run_until(now() + d); }

bool System::all_finished() const { return unfinished_tasks_ == 0; }

const TaskStats& System::task_stats(TaskId t) const {
  return checked_task(t).stats;
}

const std::string& System::task_name(TaskId t) const {
  return checked_task(t).name;
}

int System::task_node(TaskId t) const {
  return checked_task(t).node;
}

SimDuration System::total_true_cpu_time() const {
  SimDuration total{};
  for (const TaskImpl& t : tasks_) total += t.stats.true_cpu_time;
  return total;
}

SimTime System::group_finish_time(GroupId g) const {
  const auto& members = groups_.at(static_cast<std::size_t>(g.value));
  SimTime latest = SimTime::zero();
  for (const TaskId id : members) {
    assert(id.valid());
    const TaskStats& stats = task(id).stats;
    assert(stats.finished && "group member still running");
    latest = std::max(latest, stats.end_time);
  }
  return latest;
}

SimTime System::last_finish_time() const {
  SimTime latest = SimTime::zero();
  for (const TaskImpl& t : tasks_) {
    if (t.stats.finished) latest = std::max(latest, t.stats.end_time);
  }
  return latest;
}

}  // namespace smilab
