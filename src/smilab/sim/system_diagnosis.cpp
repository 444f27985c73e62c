#include "smilab/sim/system_impl.h"

#include <functional>

#include "smilab/core/fnv.h"

namespace smilab {

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
      if (ns.stopped() && topo.is_online(c) && !cs.frozen) {
        fail("node in SMM or a fault freeze but CPU not frozen");
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

}  // namespace smilab
