// rank_scale: the projection past the paper's 16 nodes. Four legs at 8
// ranks/node with no SMIs, like bench/scale_projection's committed sweep:
//
//   r16, r4096, r65536  the streaming ring halo exchange
//   a4096               an allreduce solver (log2 p partners per iteration)
//
// Set-up builds and destroys each leg's System kSetupRepeats times. The
// timed phase then runs each leg as several identical blocks; a block builds
// a fresh System, runs run_mpi_job_streaming and destroys the System. Every
// block's outcome hash must equal the leg's pinned hash.
// The inputs do not depend on the seed: the legs are deterministic and
// SMI-free, so there is nothing to draw.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "smilab/core/fnv.h"
#include "smilab/mpi/collectives.h"
#include "smilab/mpi/job.h"
#include "smilab/sim/system.h"

namespace perfbench {
namespace {

using namespace smilab;

constexpr int kRanksPerNode = 8;  // wyeast_e5520 core count: no time-sharing

struct Leg {
  const char* name;
  int ranks;
  bool allreduce;
  int iters;   ///< iterations per block
  int blocks;  ///< blocks at --seconds=10
};

// Block sizes keep a 10 s timed phase near 1 s of r16, 2 s each of r4096
// and a4096 and 4 s of r65536 on a 2020s x86 core, with enough blocks per
// leg for a median that ignores a cold first block.
constexpr Leg kLegs[] = {
    {"r16", 16, false, 1000, 40},
    {"r4096", 4096, false, 60, 5},
    {"a4096", 4096, true, 4, 5},
    {"r65536", 65536, false, 3, 5},
};

constexpr int kSetupRepeats = 9;
constexpr std::int64_t kRingBytes = 64 * 1024;
constexpr std::int64_t kAllreduceBytes = 8 * 1024;

struct Solver {
  const Leg* leg;
  std::int64_t emitted = 0;  ///< rank actions handed to the engine

  // One iteration per chunk, as bench/scale_projection's RingSolver.
  bool emit(int rank, int chunk, RankProgram& rp, TagAllocator& tags) {
    if (chunk >= leg->iters) return false;
    const std::size_t before = rp.size();
    rp.compute(microseconds(200));
    if (leg->allreduce) {
      allreduce(rp, kAllreduceBytes, tags);
    } else {
      const int base = tags.allocate(2);
      const int next = (rank + 1) % leg->ranks;
      const int prev = (rank + leg->ranks - 1) % leg->ranks;
      rp.sendrecv(next, kRingBytes, base, prev, base);
      rp.sendrecv(prev, kRingBytes, base + 1, next, base + 1);
    }
    emitted += static_cast<std::int64_t>(rp.size() - before);
    return true;
  }
};

SystemConfig leg_config(const Leg& leg) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = node_count_for(leg.ranks, kRanksPerNode);
  cfg.net = NetworkParams::wyeast();
  cfg.smi = SmiConfig::none();
  cfg.seed = 42;
  return cfg;
}

// bench/scale_projection's outcome_hash: per-rank end and CPU times,
// messages, bytes, elapsed.
std::uint64_t outcome_hash(const System& sys, const MpiJobResult& result) {
  Fnv64 h;
  h.mix_signed(result.elapsed.ns());
  for (int t = 0; t < sys.task_count(); ++t) {
    const TaskStats& s = sys.task_stats(TaskId{t});
    h.mix_signed(s.end_time.ns());
    h.mix_signed(s.os_view_cpu_time.ns());
    h.mix_signed(s.true_cpu_time.ns());
    h.mix_signed(s.smm_stolen_time.ns());
    h.mix_signed(s.messages_sent);
    h.mix_signed(s.messages_received);
    h.mix_signed(s.bytes_sent);
    h.mix(s.finished ? 1 : 0);
  }
  h.mix_signed(sys.inter_node_bytes());
  h.mix_signed(sys.peak_in_flight_messages());
  return h.value();
}

struct Block {
  int segment = 0;    ///< HostIndex segment the block ran in
  double ctor_s = 0;  ///< thread CPU building the System
  double run_s = 0;   ///< thread CPU in run_mpi_job_streaming (no hashing)
  double dtor_s = 0;  ///< thread CPU destroying the System
  std::uint64_t hash = 0;
  std::int64_t actions = 0;
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::int64_t slab_slots = 0;
  std::int64_t messages = 0;
  std::int64_t pool_peak_live = 0;
  std::int64_t peak_program_actions = 0;
  std::string error;
};

Block run_block(const Leg& leg, Tracer& tracer, int parent) {
  Block b;
  Solver solver{&leg};
  const std::vector<int> placement = block_placement(leg.ranks, kRanksPerNode);
  const auto sources = chunked_rank_sources(leg.ranks, [sp = &solver](int rank) {
    return [sp, rank](int chunk, RankProgram& rp, TagAllocator& tags) {
      return sp->emit(rank, chunk, rp, tags);
    };
  });

  double t0 = thread_cpu_now();
  std::unique_ptr<System> sys;
  {
    const Scope s{tracer, "System::System", parent};
    sys = std::make_unique<System>(leg_config(leg));
  }
  double t1 = thread_cpu_now();
  b.ctor_s = t1 - t0;
  std::optional<MpiJobResult> result;
  try {
    const Scope s{tracer, "run_mpi_job_streaming", parent};
    result = run_mpi_job_streaming(*sys, leg.ranks, sources, placement,
                                   WorkloadProfile{});
  } catch (const std::exception& e) {
    b.error = e.what();
  }
  b.run_s = thread_cpu_now() - t1;
  if (result) b.hash = outcome_hash(*sys, *result);
  b.actions = solver.emitted;
  b.events = sys->engine().executed_events();
  b.cancelled = sys->engine().cancelled_events();
  b.slab_slots = static_cast<std::int64_t>(sys->engine().slot_capacity());
  const TransportStats ts = sys->transport_stats();
  b.messages = ts.messages_allocated;
  b.pool_peak_live = ts.pool_peak_live;
  b.peak_program_actions = sys->peak_program_actions();
  t0 = thread_cpu_now();
  {
    const Scope s{tracer, "System::~System", parent};
    sys.reset();
  }
  b.dtor_s = thread_cpu_now() - t0;
  return b;
}

struct LegResult {
  const Leg* leg;
  std::vector<Block> blocks;
};

struct Phase {
  HostIndex index;
  std::vector<LegResult> legs;
};

/// One leg's System builds: CPU seconds and the HostIndex segment of each.
struct Builds {
  std::vector<double> cpu_s;
  std::vector<int> segment;
};

struct Setup {
  HostIndex index;
  std::vector<Builds> legs;  ///< in kLegs order
};

/// Set-up: each leg's System built (timed) and destroyed kSetupRepeats times.
Setup setup() {
  Setup out;
  out.index.begin();
  for (const Leg& leg : kLegs) {
    Builds builds;
    for (int i = 0; i < kSetupRepeats; ++i) {
      builds.segment.push_back(out.index.segment());
      const double t0 = thread_cpu_now();
      auto sys = std::make_unique<System>(leg_config(leg));
      builds.cpu_s.push_back(thread_cpu_now() - t0);
      sys.reset();
      out.index.tick();
    }
    out.legs.push_back(std::move(builds));
  }
  out.index.end();
  return out;
}

Phase phase(double scale, Tracer& tracer) {
  Phase out;
  out.index.begin();
  const Scope root{tracer, "rank_scale.pass"};
  for (const Leg& leg : kLegs) {
    LegResult r{&leg, {}};
    const int blocks =
        std::max(3, static_cast<int>(std::lround(leg.blocks * scale)));
    const Scope s{tracer, std::string{"leg."} + leg.name, root.id()};
    for (int i = 0; i < blocks; ++i) {
      const int segment = out.index.segment();
      r.blocks.push_back(run_block(leg, tracer, s.id()));
      r.blocks.back().segment = segment;
      out.index.tick();
    }
    out.legs.push_back(std::move(r));
  }
  out.index.end();
  return out;
}

void write_phase(smilab::serve::JsonWriter& w, std::string_view key,
                 const Phase& phase) {
  smilab::serve::JsonWriter o;
  o.begin_object();
  phase.index.write(o, "index");
  o.begin_array("legs");
  for (const LegResult& l : phase.legs) {
    o.begin_object();
    o.field("name", l.leg->name);
    o.field("ranks", l.leg->ranks);
    o.field("iters", l.leg->iters);
    o.begin_array("blocks");
    for (const Block& b : l.blocks) {
      o.begin_object();
      o.field("segment", b.segment);
      o.field("ctor_s", b.ctor_s);
      o.field("run_s", b.run_s);
      o.field("dtor_s", b.dtor_s);
      o.field("hash", smilab::serve::key_hex(b.hash));
      o.field("error", b.error);
      o.field("actions", b.actions);
      o.field("events", static_cast<std::int64_t>(b.events));
      o.field("cancelled", static_cast<std::int64_t>(b.cancelled));
      o.field("slab_slots", b.slab_slots);
      o.field("messages", b.messages);
      o.field("pool_peak_live", b.pool_peak_live);
      o.field("peak_program_actions", b.peak_program_actions);
      o.end_object();
    }
    o.end_array();
    o.end_object();
  }
  o.end_array();
  o.end_object();
  w.raw_field(key, o.str());
}

}  // namespace

int run_rank_scale(const Args& args) {
  const long long seconds = args.get_int("seconds", 10);
  const bool trace = args.get_int("trace", 0) != 0;
  if (seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  const double scale = static_cast<double>(seconds) / 10.0;

  smilab::serve::JsonWriter w;
  w.begin_object();
  w.field("mode", "rank_scale");
  w.field("seed", static_cast<std::int64_t>(args.get_int("seed", 0)));
  Tracer tracer{trace};
  {
    const Setup s = setup();
    smilab::serve::JsonWriter o;
    o.begin_object();
    s.index.write(o, "index");
    o.begin_array("legs");
    for (std::size_t i = 0; i < s.legs.size(); ++i) {
      o.begin_object();
      o.field("name", kLegs[i].name);
      o.begin_array("build_s");
      for (const double v : s.legs[i].cpu_s) o.element(v);
      o.end_array();
      o.begin_array("segment");
      for (const int v : s.legs[i].segment) o.element(v);
      o.end_array();
      o.end_object();
    }
    o.end_array();
    o.end_object();
    w.raw_field("setup", o.str());
  }
  if (trace) {
    // Same work untraced first: the tracing overhead is the difference.
    Tracer off{false};
    write_phase(w, "untraced", phase(scale, off));
  }
  write_phase(w, "timed", phase(scale, tracer));
  w.field("peak_rss_mb", peak_rss_mb());
  tracer.write(w);
  w.end_object();
  emit(w);
  return 0;
}

}  // namespace perfbench
