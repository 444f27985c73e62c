#include "smilab/sim/system_impl.h"

namespace smilab {

// --- Whole-node stops ----------------------------------------------------------
//
// An SMI stops every online CPU of its node and both NIC directions at
// once; an injected fault freeze stops them the same way. Both go through
// one rule: the NICs pause per cause (refcounted), the CPUs freeze on the
// first cause and thaw when the last one clears, and timer wakes that fire
// meanwhile wait for the thaw. Only an SMM exit charges the OS-view clock
// and the refill model: a hang stops the kernel's clocks too. A single-CPU
// preemption (OS noise) that the node's stop overlaps ends with the thaw.

bool System::node_in_smm(int node) const {
  return node_state(node).in_smm;
}

bool System::node_fault_frozen(int node) const {
  return node_state(node).fault_frozen;
}

bool System::node_crashed(int node) const {
  return node_state(node).crashed;
}

void System::freeze_cpu(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  cs.frozen = true;
  cancel_quantum(cs);
  if (cs.current >= 0) {
    TaskImpl& t = tasks_[static_cast<std::size_t>(cs.current)];
    settle(t);
    cancel_completion(t);
  }
}

// Restart one thawed CPU's task, charging it an SMM exit's `smm`.
void System::thaw_cpu(int node, int cpu, const SmmCharge* smm) {
  CpuState& cs = cpu_state(node, cpu);
  cs.frozen = false;
  if (cs.current < 0) return;
  TaskImpl& t = tasks_[static_cast<std::size_t>(cs.current)];
  if (smm != nullptr) {
    // The OS never saw the freeze: it keeps charging the task.
    t.stats.os_view_cpu_time += smm->frozen_for;
    t.stats.smm_stolen_time += smm->frozen_for;
    t.stats.smm_hits += 1;
    apply_refill(t, refill_rng_, scale(smm->frozen_for, smm->warm_fraction));
  }
  begin_running(t);
  // The freeze cancelled the preemption timer; restore timeslicing for
  // oversubscribed CPUs (a spinning waiter must not starve its queue).
  arm_quantum(node, cpu);
}

void System::stop_node(int node) {
  // TCP stalls with the host: neither direction of the NIC makes progress.
  nic_pause(node);
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    // A CPU already stopped (another cause, a preemption) stays as it is.
    if (topo.is_online(i) && !cpu_state(node, i).frozen) freeze_cpu(node, i);
  }
}

void System::start_node(int node, const SmmCharge* smm) {
  nic_resume(node);
  NodeState& ns = node_state(node);
  if (ns.stopped() || ns.crashed) return;  // another cause still holds the CPUs
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (topo.is_online(i)) thaw_cpu(node, i, smm);
  }
  const std::vector<std::int32_t> wakes = std::move(ns.deferred_wakes);
  ns.deferred_wakes.clear();
  for (const std::int32_t idx : wakes) {
    TaskImpl& t = tasks_[static_cast<std::size_t>(idx)];
    if (t.state == TaskImpl::State::kSleeping) make_ready(t);
  }
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (topo.is_online(i)) dispatch(node, i);
  }
}

// --- SMM ---------------------------------------------------------------------------

void System::smm_enter(int node) {
  NodeState& ns = node_state(node);
  assert(!ns.in_smm && "nested SMM entry");
  ns.in_smm = true;
  ns.freeze_start = now();
  stop_node(node);
}

void System::smm_exit(int node, const SmmInterval& interval) {
  NodeState& ns = node_state(node);
  assert(ns.in_smm);
  ns.in_smm = false;
  smm_acct_.record(interval);
  // The state worth re-warming after SMM is bounded by what was rebuilt
  // since the previous SMM interval: at high SMI rates caches never get
  // fully hot, so the per-SMI warm-up shrinks with the gap. The quadratic
  // damping reflects that a barely-warm cache both has less to lose and
  // loses it more cheaply (the lines it still needs are the recent ones).
  // A fault stall that outlasts the SMI, or a crash inside it, keeps the
  // CPUs down: nothing on the node observed the handler return.
  SmmCharge charge{now() - ns.freeze_start, 1.0};
  if (ns.last_smm_exit >= SimTime::zero()) {
    const SimDuration warm = ns.freeze_start - ns.last_smm_exit;
    const double f = warm / (warm + charge.frozen_for);
    charge.warm_fraction = f * f;
  }
  ns.last_smm_exit = now();
  start_node(node, &charge);
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

// --- Single-CPU OS noise ------------------------------------------------------------

void System::preempt_cpu(int node, int cpu) {
  assert(!cpu_state(node, cpu).frozen && "CPU already preempted");
  freeze_cpu(node, cpu);
}

void System::resume_cpu(int node, int cpu) {
  if (node_state(node).stopped()) return;  // the node's thaw restores the CPU
  if (!cpu_state(node, cpu).frozen) return;  // already restored by a thaw
  thaw_cpu(node, cpu, /*smm=*/nullptr);
  dispatch(node, cpu);
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

void System::fault_freeze_enter(int node) {
  NodeState& ns = node_state(node);
  if (ns.crashed) return;
  assert(!ns.fault_frozen && "nested fault freeze");
  ns.fault_frozen = true;
  fault_log_.push_back({FaultRecord::Kind::kFreeze, node, now(), SimTime{-1}});
  stop_node(node);
}

void System::fault_freeze_exit(int node) {
  NodeState& ns = node_state(node);
  if (ns.crashed) return;  // the crash superseded the stall
  assert(ns.fault_frozen);
  ns.fault_frozen = false;
  close_fault_record(FaultRecord::Kind::kFreeze, node);
  start_node(node, /*smm=*/nullptr);
}

void System::kill_task(TaskImpl& t) {
  assert(!t.stats.finished && !t.stats.failed);
  auto& cs = cpu_state(t.node, t.cpu);
  if (t.on_cpu) {
    if (!cs.frozen) settle(t);  // frozen tasks were settled at freeze time
    assert(cs.current == t.id.value);
    cs.current = -1;
    t.on_cpu = false;
    cancel_quantum(cs);
  }
  if (t.queued) {
    auto& q = cs.runqueue;
    q.erase(std::remove(q.begin(), q.end(), t.id.value), q.end());
    t.queued = false;
  }
  cancel_completion(t);
  t.state = TaskImpl::State::kDone;
  t.stats.failed = true;
  t.stats.end_time = now();
  t.work_left = SimDuration::zero();
  t.pending_overhead = SimDuration::zero();
  t.action.reset();
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
  // The NICs go silent forever (the pause cancelled any done event);
  // traffic parked at them is undeliverable.
  nic_pause(node);
  for (NicServer* server : {&ns.egress, &ns.ingress}) {
    if (server->active.valid()) {
      fail_message(server->active);
      server->active = MsgHandle{};
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
    if (topo.is_online(i)) repace(node, i);
  }
}

void System::set_link_down(int node, bool down) {
  if (node_state(node).crashed) return;
  if (down) {
    fault_log_.push_back(
        {FaultRecord::Kind::kLinkDown, node, now(), SimTime{-1}});
    nic_pause(node);
  } else {
    close_fault_record(FaultRecord::Kind::kLinkDown, node);
    nic_resume(node);
  }
}

}  // namespace smilab
