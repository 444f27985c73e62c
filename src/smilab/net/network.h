// Network timing model: LogGP-flavoured parameters plus cost helpers.
//
// The actual per-node NIC queueing lives in the System as event-driven
// egress/ingress servers so that transfers PAUSE while a node is in SMM —
// on the paper's TCP/GigE cluster a frozen host neither transmits nor ACKs,
// so the wire stalls with the CPUs. This coupling is what lets long SMIs
// perturb bandwidth-bound MPI phases (FT's all-to-all) the way Table 3
// shows; a closed-form delivery model would let backlogs drain for free
// during the freeze.
//
// Cost structure of a message src -> dst of B bytes:
//   CPU (sender):  send_overhead + B / cpu_copy_bw        (task work)
//   wire (inter):  egress server: per_message_wire_overhead + B / bandwidth
//                  ingress server: same, at the destination
//                  + latency (propagation; SMM-immune)
//   wire (intra):  intra_latency + B / intra_bandwidth    (shared memory)
//   CPU (recv):    recv_overhead + B / cpu_copy_bw        (task work)
#pragma once

#include <cstdint>

#include "smilab/time/sim_time.h"

namespace smilab {

struct NetworkParams {
  // Wire-level (inter-node).
  SimDuration latency = microseconds(55);          ///< one-way propagation
  double bandwidth_bytes_per_s = 117e6;            ///< ~GigE payload rate
  SimDuration per_message_wire_overhead = microseconds(6);

  // Intra-node (shared-memory transport).
  SimDuration intra_latency = microseconds(1);
  double intra_bandwidth_bytes_per_s = 3.0e9;

  // CPU-side costs, charged as task work.
  SimDuration send_overhead = microseconds(3);     ///< LogGP o (send)
  SimDuration recv_overhead = microseconds(3);     ///< LogGP o (recv)
  double cpu_copy_bytes_per_s = 2.5e9;             ///< memcpy into/out of MPI

  /// Messages larger than this use the rendezvous protocol: the sender
  /// blocks until the receiver's completion acknowledgement.
  std::int64_t rendezvous_threshold = 64 * 1024;

  /// Extra outage added to an in-flight transfer when a NIC resumes after
  /// an SMM freeze, sampled uniform in [0, scale * stall]. Models TCP loss
  /// recovery: the longer the host was frozen, the more timers fire and the
  /// further the congestion window collapses, so a ~105 ms freeze costs up
  /// to another ~stall of degraded throughput while a 1-3 ms blip costs
  /// nothing noticeable. Zero disables the effect.
  double tcp_recovery_scale = 0.0;

  // Retransmission state machine (the generalization of the one-shot
  // recovery outage above). Fires only when a LinkFaultModel drops a
  // delivery attempt: the lost attempt is retried retrans_timeout after the
  // drop, doubling (retrans_backoff) per consecutive loss, RFC 6298-style.
  // After max_retries consecutive losses the transport declares the message
  // undeliverable (a dead link) and abandons it; the blocked receiver then
  // shows up in the run diagnosis.
  SimDuration retrans_timeout = milliseconds(200);  ///< initial RTO
  double retrans_backoff = 2.0;                     ///< RTO growth per loss
  int max_retries = 10;                             ///< attempts before giving up

  /// The Wyeast cluster interconnect fitted to the paper's SMM-0 columns
  /// (see apps/nas/calibration notes in DESIGN.md).
  static NetworkParams wyeast();
};

/// Pure cost calculator over NetworkParams (no NIC queue state; that is
/// owned by the System's event-driven servers). Each cost is one division
/// and one addition, computed on every call: a memo of them measured
/// slower per call than the arithmetic (DESIGN.md §11).
class NetworkModel {
 public:
  explicit NetworkModel(NetworkParams params) : params_(params) {}

  [[nodiscard]] const NetworkParams& params() const { return params_; }

  /// Service time of one message at one NIC stage (egress or ingress).
  [[nodiscard]] SimDuration wire_xmit(std::int64_t bytes) const {
    return cost(params_.per_message_wire_overhead, bytes,
                params_.bandwidth_bytes_per_s);
  }

  /// End-to-end transfer time of an intra-node (shared memory) message.
  [[nodiscard]] SimDuration intra_transfer(std::int64_t bytes) const {
    return cost(params_.intra_latency, bytes,
                params_.intra_bandwidth_bytes_per_s);
  }

  [[nodiscard]] SimDuration latency() const { return params_.latency; }

  /// CPU work the sender performs to hand `bytes` to the transport.
  [[nodiscard]] SimDuration send_cpu_cost(std::int64_t bytes) const {
    return cost(params_.send_overhead, bytes, params_.cpu_copy_bytes_per_s);
  }
  /// CPU work the receiver performs to drain a matched message.
  [[nodiscard]] SimDuration recv_cpu_cost(std::int64_t bytes) const {
    return cost(params_.recv_overhead, bytes, params_.cpu_copy_bytes_per_s);
  }

  [[nodiscard]] bool is_rendezvous(std::int64_t bytes) const {
    return bytes > params_.rendezvous_threshold;
  }

 private:
  // The calibrated expression: keep the division (a multiply by the
  // reciprocal rounds differently and would move the goldens).
  static SimDuration cost(SimDuration overhead, std::int64_t bytes,
                          double bytes_per_s) {
    return overhead + seconds_d(static_cast<double>(bytes) / bytes_per_s);
  }

  NetworkParams params_;
};

}  // namespace smilab
