#include "smilab/sim/system_impl.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "smilab/smm/smi_controller.h"

namespace smilab {

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

const System::TaskImpl& System::checked_task(TaskId id) const {
  if (id.value < 0 || static_cast<std::size_t>(id.value) >= tasks_.size()) {
    throw std::out_of_range("no task " + std::to_string(id.value));
  }
  return tasks_[static_cast<std::size_t>(id.value)];
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
        // Round robin: the running task yields to the next queued one.
        TaskImpl& t = tasks_[static_cast<std::size_t>(s.current)];
        stop_running(t);
        make_ready(t);
        dispatch(node, cpu);
      });
}

void System::cancel_quantum(CpuState& cs) {
  engine_.cancel(cs.quantum_ev);
  cs.quantum_ev = EventId{};
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
  return node_speed_[static_cast<std::size_t>(t.node)] *
         fault_rate_[static_cast<std::size_t>(t.node)] *
         execution_rate(t.profile, sibling_busy(t));
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

void System::stop_running(TaskImpl& t) {
  assert(t.on_cpu);
  settle(t);
  cancel_completion(t);
  auto& cs = cpu_state(t.node, t.cpu);
  assert(cs.current == t.id.value);
  cs.current = -1;
  t.on_cpu = false;
  cancel_quantum(cs);
  sibling_rate_changed(t.node, t.cpu);
}

void System::cancel_completion(TaskImpl& t) {
  ++t.epoch;
  engine_.cancel(t.completion_ev);
  t.completion_ev = EventId{};
}

void System::reschedule_completion(TaskImpl& t) {
  assert(t.on_cpu && t.work_left > SimDuration::zero());
  cancel_completion(t);
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

void System::repace(int node, int cpu) {
  const CpuState& cs = cpu_state(node, cpu);
  if (cs.current < 0 || cs.frozen) return;
  TaskImpl& t = tasks_[static_cast<std::size_t>(cs.current)];
  if (!t.on_cpu) return;
  settle(t);
  const double new_rate = current_rate(t);
  if (new_rate == t.rate) return;
  t.rate = new_rate;
  if (t.work_left > SimDuration::zero()) reschedule_completion(t);
}

void System::sibling_rate_changed(int node, int cpu) {
  const int sib = cpu_state(node, cpu).sibling;
  if (sib >= 0) repace(node, sib);
}

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

// --- Running -----------------------------------------------------------------------

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

