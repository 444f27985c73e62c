#include "smilab/sim/system_impl.h"

namespace smilab {

namespace {
constexpr std::int64_t kAckBytes = 64;
}  // namespace

// --- Action interpretation ---------------------------------------------------------

void System::start_next_action(TaskImpl& t) {
  note_progress();  // an action retired: the hang watchdog re-arms
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
    stop_running(t);
    engine_.schedule_after(sleep->dur, [this, id = t.id] {
      TaskImpl& task_ref = task(id);
      if (task_ref.state != TaskImpl::State::kSleeping) return;
      // Timer interrupts are deferred while the node is stopped (SMM or an
      // injected fault stall).
      if (node_state(task_ref.node).stopped()) {
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
    stop_running(t);
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
  stop_running(t);
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
  msg.arrived_during_smm = node_state(dst.node).in_smm;

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

}  // namespace smilab
