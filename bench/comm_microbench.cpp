// Message-path micro-suite: throughput of the simulator's point-to-point
// transport under the four shapes that stress it differently:
//
//  * ping-pong        — latency-bound alternating eager traffic; exercises
//                       inject -> NIC -> arrival -> match with a queue depth
//                       of one.
//  * unexpected flood — one receiver accumulates a deep unexpected queue
//                       (distinct tags) and drains it in REVERSE order, so
//                       every match hits the far end. The old mailbox scan
//                       plus front-only compaction made this quadratic; the
//                       bucketed queues make it O(1) per message.
//  * rendezvous ack storm — rings of nonblocking rendezvous sends keep many
//                       completion acks outstanding at once; exercises the
//                       ack-key routing, posted-receive index, waitall
//                       progress counters, and lazy ack maturation.
//  * egress burst     — one sender blasts back-to-back eager bursts at a
//                       single NIC egress server; exercises the FIFO
//                       server's queue and per-message done events.
//
// A small grid re-profile rides along: a sweep of independent storm cells
// timed at --jobs=1 and at hardware concurrency, recording cells/s for both
// so the grid-level parallel speedup is tracked next to the per-cell rates.
//
// Always writes BENCH_comm_microbench.json with messages/s headline numbers,
// the pool's bounded-memory evidence, and the CI floor values the perf-smoke
// job gates on.
//
// Usage: comm_microbench [--quick]
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_json.h"
#include "smilab/core/sweep.h"
#include "smilab/mpi/job.h"
#include "smilab/sim/system.h"

namespace {

using namespace smilab;

// Floors for the CI perf-smoke gate, recorded in the JSON artifact. Local
// Release rates are ~2M (flood), ~1.4M (storm), ~2M (burst) msgs/s; the
// floors sit far below so only a reversion to quadratic matching or a
// gross regression trips them on slow shared runners.
constexpr double kFloodFloor = 400'000.0;
constexpr double kAckStormFloor = 500'000.0;
constexpr double kEgressBurstFloor = 600'000.0;

SystemConfig base_cfg(int nodes) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = nodes;
  cfg.net = NetworkParams::wyeast();
  cfg.seed = 7;
  return cfg;
}

struct Rate {
  double msgs_per_s = 0;
  TransportStats stats;
};

/// Eager ping-pong between two ranks on distinct nodes.
Rate measure_ping_pong(int round_trips) {
  System sys{base_cfg(2)};
  const GroupId g = sys.create_group(2);
  std::vector<Action> a, b;
  for (int i = 0; i < round_trips; ++i) {
    a.push_back(Send{1, 1024, 1});
    a.push_back(Recv{1, 2});
    b.push_back(Recv{0, 1});
    b.push_back(Send{0, 1024, 2});
  }
  sys.spawn_member(g, 0, TaskSpec::with_actions("a", 0, std::move(a)));
  sys.spawn_member(g, 1, TaskSpec::with_actions("b", 1, std::move(b)));
  benchtool::CpuTimer timer;
  sys.run();
  Rate r;
  r.msgs_per_s = 2.0 * round_trips / timer.seconds();
  r.stats = sys.transport_stats();
  return r;
}

/// Deep unexpected queue drained out of order: `tags` eager messages with
/// distinct tags pile up while the receiver computes, then are received in
/// reverse tag order; repeated for `rounds`.
Rate measure_unexpected_flood(int tags, int rounds) {
  System sys{base_cfg(2)};
  const GroupId g = sys.create_group(2);
  std::vector<Action> recv_prog, send_prog;
  for (int round = 0; round < rounds; ++round) {
    for (int tg = 0; tg < tags; ++tg) send_prog.push_back(Send{0, 512, tg});
    send_prog.push_back(Compute{milliseconds(400)});
    recv_prog.push_back(Compute{milliseconds(350)});
    for (int tg = tags - 1; tg >= 0; --tg) recv_prog.push_back(Recv{1, tg});
  }
  sys.spawn_member(g, 0,
                   TaskSpec::with_actions("recv", 0, std::move(recv_prog)));
  sys.spawn_member(g, 1,
                   TaskSpec::with_actions("send", 1, std::move(send_prog)));
  benchtool::CpuTimer timer;
  sys.run();
  Rate r;
  r.msgs_per_s = static_cast<double>(tags) * rounds / timer.seconds();
  r.stats = sys.transport_stats();
  return r;
}

/// Nonblocking rendezvous ring: every rank isends `burst` rendezvous-sized
/// messages to its successor and irecvs as many from its predecessor, then
/// waits on everything — keeping burst*p completion acks in flight.
Rate measure_ack_storm(int ranks, int burst, int rounds) {
  System sys{base_cfg(ranks)};
  auto programs = make_rank_programs(ranks);
  std::int64_t messages = 0;
  for (int round = 0; round < rounds; ++round) {
    for (auto& rp : programs) {
      const int next = (rp.rank() + 1) % ranks;
      std::vector<int> handles;
      for (int i = 0; i < burst; ++i) {
        rp.isend(next, 128 * 1024, 10 + i, /*handle=*/i);
        rp.irecv_any(10 + i, /*handle=*/burst + i);
        handles.push_back(i);
        handles.push_back(burst + i);
      }
      rp.waitall(std::move(handles));
    }
    messages += static_cast<std::int64_t>(ranks) * burst;
  }
  benchtool::CpuTimer timer;
  auto result = run_mpi_job(sys, std::move(programs),
                            block_placement(ranks, 1), WorkloadProfile{});
  Rate r;
  r.msgs_per_s = static_cast<double>(messages) / timer.seconds();
  r.stats = result.transport;
  return r;
}

/// Back-to-back eager bursts at one egress server: each round the sender
/// blasts `burst` eager isends into its NIC's FIFO, then waits for the
/// receiver's short done message before the next round — so the in-flight
/// window stays one burst deep and the measurement tracks per-burst
/// service cost rather than backlog memory.
Rate measure_egress_burst(int burst, int rounds) {
  System sys{base_cfg(2)};
  auto programs = make_rank_programs(2);
  const int done_tag = 1 << 20;
  for (int round = 0; round < rounds; ++round) {
    std::vector<int> send_handles, recv_handles;
    for (int i = 0; i < burst; ++i) {
      programs[0].isend(1, 4096, /*tag=*/i, /*handle=*/i);
      send_handles.push_back(i);
      programs[1].irecv(0, /*tag=*/i, /*handle=*/i);
      recv_handles.push_back(i);
    }
    programs[0].waitall(std::move(send_handles));
    programs[0].recv(1, done_tag);
    programs[1].waitall(std::move(recv_handles));
    programs[1].send(0, 64, done_tag);
  }
  const std::int64_t messages = static_cast<std::int64_t>(burst) * rounds;
  benchtool::CpuTimer timer;
  auto result = run_mpi_job(sys, std::move(programs), block_placement(2, 1),
                            WorkloadProfile{});
  Rate r;
  r.msgs_per_s = static_cast<double>(messages) / timer.seconds();
  r.stats = result.transport;
  return r;
}

/// Grid re-profile: `cells` independent ack-storm cells (seed = cell index)
/// fanned over `jobs` sweep workers; returns cells/s by wall clock (the
/// workers run concurrently, so thread CPU time would mismeasure).
double measure_grid_cells_per_s(int jobs, int cells, int rounds) {
  const benchtool::WallTimer timer;
  const ExperimentSweep sweep{jobs};
  sweep.for_each(cells, [&](int i) {
    SystemConfig cfg = base_cfg(8);
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    System sys{cfg};
    auto programs = make_rank_programs(8);
    for (int round = 0; round < rounds; ++round) {
      for (auto& rp : programs) {
        const int next = (rp.rank() + 1) % 8;
        std::vector<int> handles;
        for (int b = 0; b < 16; ++b) {
          rp.isend(next, 128 * 1024, 10 + b, /*handle=*/b);
          rp.irecv_any(10 + b, /*handle=*/16 + b);
          handles.push_back(b);
          handles.push_back(16 + b);
        }
        rp.waitall(std::move(handles));
      }
    }
    (void)run_mpi_job(sys, std::move(programs), block_placement(8, 1),
                      WorkloadProfile{});
  });
  return static_cast<double>(cells) / timer.seconds();
}

/// Best-of-N wall-clock: the simulation is deterministic, so every
/// repetition does identical work and the fastest run is the least
/// machine-noise-contaminated estimate.
template <typename Fn>
Rate best_of(int reps, Fn&& measure) {
  Rate best = measure();
  for (int i = 1; i < reps; ++i) {
    Rate r = measure();
    if (r.msgs_per_s > best.msgs_per_s) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    // --jobs=/--trials=/--csv=: accepted-and-ignored shared driver flags.
  }
  const int scale = quick ? 1 : 4;
  const int reps = quick ? 1 : 3;

  const Rate ping =
      best_of(reps, [&] { return measure_ping_pong(20'000 * scale); });
  std::printf("ping-pong:        %12.0f msgs/s\n", ping.msgs_per_s);
  const Rate flood = best_of(
      reps, [&] { return measure_unexpected_flood(1500, 4 * scale); });
  std::printf("unexpected flood: %12.0f msgs/s  (pool capacity %lld for %lld msgs)\n",
              flood.msgs_per_s,
              static_cast<long long>(flood.stats.pool_capacity),
              static_cast<long long>(flood.stats.messages_allocated));
  const Rate storm =
      best_of(reps, [&] { return measure_ack_storm(8, 48, 2 * scale); });
  std::printf("rendezvous storm: %12.0f msgs/s  (%lld ack routes at exit)\n",
              storm.msgs_per_s,
              static_cast<long long>(storm.stats.ack_routes));
  const Rate burst = best_of(
      reps, [&] { return measure_egress_burst(64, 300 * scale); });
  std::printf("egress burst:     %12.0f msgs/s  (peak in flight %lld)\n",
              burst.msgs_per_s,
              static_cast<long long>(burst.stats.peak_in_flight));

  // Grid-level parallel speedup: independent cells across sweep workers.
  const int grid_cells = quick ? 8 : 24;
  const int grid_rounds = 4 * scale;
  const int grid_jobs = effective_jobs(0);
  const double grid_j1 = measure_grid_cells_per_s(1, grid_cells, grid_rounds);
  const double grid_jn =
      measure_grid_cells_per_s(grid_jobs, grid_cells, grid_rounds);
  std::printf("grid re-profile:  %8.1f cells/s at jobs=1, %8.1f at jobs=%d "
              "(%.1fx)\n",
              grid_j1, grid_jn, grid_jobs, grid_jn / grid_j1);

  smilab::benchtool::BenchJson json{"comm_microbench"};
  json.set("quick", quick);
  json.set("ping_pong_msgs_per_s", ping.msgs_per_s);
  json.set("unexpected_flood_msgs_per_s", flood.msgs_per_s);
  json.set("ack_storm_msgs_per_s", storm.msgs_per_s);
  json.set("egress_burst_msgs_per_s", burst.msgs_per_s);
  json.set("grid_cells_per_s_jobs1", grid_j1);
  json.set("grid_cells_per_s_jobsN", grid_jn);
  json.set("grid_jobs_n", grid_jobs);
  // On a single-core box jobs=1 and jobs=N are the same configuration, so a
  // "speedup" key would just record run-to-run noise. Only emit it when the
  // grid actually fanned out.
  if (grid_jobs > 1) json.set("grid_parallel_speedup", grid_jn / grid_j1);
  json.set("flood_pool_capacity",
           static_cast<long long>(flood.stats.pool_capacity));
  json.set("flood_messages_allocated",
           static_cast<long long>(flood.stats.messages_allocated));
  json.set("flood_pool_live_at_exit",
           static_cast<long long>(flood.stats.pool_live));
  json.set("storm_peak_in_flight",
           static_cast<long long>(storm.stats.peak_in_flight));
  json.set("ci_floor_unexpected_flood_msgs_per_s", kFloodFloor);
  json.set("ci_floor_ack_storm_msgs_per_s", kAckStormFloor);
  json.set("ci_floor_egress_burst_msgs_per_s", kEgressBurstFloor);
  json.write();
  return 0;
}
