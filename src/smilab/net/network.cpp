#include "smilab/net/network.h"

namespace smilab {

NetworkParams NetworkParams::wyeast() {
  NetworkParams p;
  // The absolute BT/FT baselines in Tables 1/3 imply a heavily contended
  // commodity interconnect: effective point-to-point payload bandwidth well
  // below line rate and tens-of-microseconds latency. These values are the
  // calibration fit; the SMI deltas do not depend on them being exact.
  p.latency = microseconds(60);
  p.bandwidth_bytes_per_s = 85e6;
  p.per_message_wire_overhead = microseconds(10);
  p.intra_latency = microseconds(1);
  p.intra_bandwidth_bytes_per_s = 2.5e9;
  p.send_overhead = microseconds(4);
  p.recv_overhead = microseconds(4);
  p.cpu_copy_bytes_per_s = 2.2e9;
  p.rendezvous_threshold = 64 * 1024;
  // Stall-proportional loss recovery: a 100-110 ms freeze costs up to about
  // as much again in retransmission and congestion-window rebuild on busy
  // flows; millisecond blips are absorbed by the socket buffers.
  p.tcp_recovery_scale = 1.0;
  // Linux-flavoured retransmission behaviour on the GigE fabric: 200 ms
  // minimum RTO, doubling per loss, ~15 retries before the connection is
  // declared dead (net.ipv4.tcp_retries2 territory, truncated — backoff
  // past 10 doublings already exceeds any experiment horizon).
  p.retrans_timeout = milliseconds(200);
  p.retrans_backoff = 2.0;
  p.max_retries = 10;
  return p;
}

}  // namespace smilab
