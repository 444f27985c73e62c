#include "smilab/sim/system_impl.h"

namespace smilab {

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
  nic_arm(server, node, egress);
}

void System::nic_arm(NicServer& server, int node, bool egress) {
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
  if (node_state(msg.dst_node).crashed) {
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

void System::nic_pause(int node) {
  for (const bool egress : {true, false}) {
    NicServer& server = nic(node, egress);
    if (++server.pause_depth > 1) continue;  // already stopped by another cause
    server.paused_at = now();
    if (!server.active.valid()) continue;
    server.remaining -= now() - server.since;
    if (server.remaining < SimDuration{1}) server.remaining = SimDuration{1};
    ++server.epoch;
    engine_.cancel(server.done_ev);
    server.done_ev = EventId{};
  }
}

void System::nic_resume(int node) {
  for (const bool egress : {true, false}) {
    NicServer& server = nic(node, egress);
    assert(server.paused());
    if (--server.pause_depth > 0) continue;  // another cause still holds it
    if (!server.active.valid()) {
      nic_try_serve(node, egress);
      continue;
    }
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
    nic_arm(server, node, egress);
  }
}

}  // namespace smilab
