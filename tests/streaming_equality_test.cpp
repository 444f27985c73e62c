// Streaming/retained equality suite: streaming action sources
// (mpi/streaming.h, mpi/job.h run_mpi_job_streaming) are a pure memory
// change. Every scenario here runs twice — retained (the oracle: whole
// programs from build_nas_trace, run through the run_mpi_job adapter) and
// streaming (the product path) — and asserts the full observable trace
// hashes are EQUAL.
//
// Alongside the equality pins: unit behaviour of ChunkedProgramSource and
// RepeatActions, peak_program_actions high-water accounting (the metric
// that proves streaming's O(ranks) residency), and SmmAccounting's bounded
// ring keeping aggregates exact while capping the retained interval list.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "smilab/apps/nas/nas.h"
#include "smilab/apps/nas/runner.h"
#include "smilab/fault/fault_injector.h"
#include "smilab/fault/fault_plan.h"
#include "smilab/mpi/collectives.h"
#include "smilab/mpi/job.h"
#include "smilab/mpi/streaming.h"
#include "smilab/sim/system.h"
#include "smilab/smm/accounting.h"
#include "smilab/thread/work_queue.h"

namespace smilab {
namespace {

class TraceHash {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void mix_signed(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void mix_stats(TraceHash& h, const TaskStats& s) {
  h.mix_signed(s.end_time.ns());
  h.mix_signed(s.os_view_cpu_time.ns());
  h.mix_signed(s.true_cpu_time.ns());
  h.mix_signed(s.smm_stolen_time.ns());
  h.mix_signed(s.refill_overhead.ns());
  h.mix_signed(s.smm_hits);
  h.mix_signed(s.messages_sent);
  h.mix_signed(s.messages_received);
  h.mix_signed(s.bytes_sent);
  h.mix(s.finished ? 1 : 0);
  h.mix(s.failed ? 1 : 0);
}

void mix_system(TraceHash& h, const System& sys) {
  for (int t = 0; t < sys.task_count(); ++t) {
    mix_stats(h, sys.task_stats(TaskId{t}));
  }
  h.mix_signed(sys.inter_node_bytes());
  h.mix_signed(sys.messages_dropped());
  h.mix_signed(sys.messages_duplicated());
  h.mix_signed(sys.retransmissions());
  h.mix_signed(sys.transport_failures());
  h.mix_signed(sys.peak_in_flight_messages());
}

// --- NAS retained vs streaming ---------------------------------------------

/// How a run holds its rank programs: the whole-program oracle or the
/// streaming sources every product path uses.
enum class Residency { kRetained, kStreaming };

System make_nas_system(const NasJobSpec& spec, const SmiConfig& smi,
                       std::uint64_t seed) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = spec.nodes;
  cfg.net = NetworkParams::wyeast();
  cfg.smi = smi;
  cfg.seed = seed;
  cfg.node_speed_sigma = 0.003;
  return System{cfg};
}

struct NasRun {
  std::uint64_t hash = 0;
  std::int64_t peak_program_actions = 0;
  double elapsed_s = 0;
};

NasRun nas_run(const NasJobSpec& spec, const NasKnob& knob,
               Residency residency, const SmiConfig& smi, std::uint64_t seed) {
  System sys = make_nas_system(spec, smi, seed);
  sys.set_online_cpus(spec.htt ? sys.config().machine.logical_cpus()
                               : sys.config().machine.cores());
  const auto placement = block_placement(spec.ranks(), spec.ranks_per_node);
  MpiJobResult result =
      residency == Residency::kStreaming
          ? run_mpi_job_streaming(sys, spec.ranks(),
                                  make_nas_rank_sources(spec, knob), placement,
                                  WorkloadProfile::dense_fp())
          : run_mpi_job(sys, build_nas_trace(spec, knob), placement,
                        WorkloadProfile::dense_fp());
  sys.validate();
  TraceHash h;
  h.mix_signed(result.elapsed.ns());
  mix_system(h, sys);
  return NasRun{h.value(), sys.peak_program_actions(),
                result.elapsed.seconds()};
}

// A fast FT-shaped spec: real alltoall + allreduce structure at 8 ranks.
NasJobSpec small_ft(bool htt = false) {
  NasJobSpec spec;
  spec.bench = NasBenchmark::kFT;
  spec.cls = NasClass::kA;  // 6 iterations
  spec.nodes = 2;
  spec.ranks_per_node = 4;
  spec.htt = htt;
  return spec;
}

TEST(StreamingEqualityTest, FtStreamingMatchesRetainedUnderLongSmi) {
  const NasKnob knob{32 * 1024, 500};
  for (const std::uint64_t seed : {1ull, 9ull}) {
    EXPECT_EQ(
        nas_run(small_ft(), knob, Residency::kStreaming,
                SmiConfig::long_every_second(), seed)
            .hash,
        nas_run(small_ft(), knob, Residency::kRetained,
                SmiConfig::long_every_second(), seed)
            .hash)
        << "seed " << seed;
  }
}

TEST(StreamingEqualityTest, FtStreamingMatchesRetainedUnderHtt) {
  const NasKnob knob{16 * 1024, 0};
  EXPECT_EQ(nas_run(small_ft(/*htt=*/true), knob, Residency::kStreaming,
                    SmiConfig::short_every_second(), 4)
                .hash,
            nas_run(small_ft(/*htt=*/true), knob, Residency::kRetained,
                    SmiConfig::short_every_second(), 4)
                .hash);
}

TEST(StreamingEqualityTest, BtStreamingMatchesRetained) {
  NasJobSpec spec;
  spec.bench = NasBenchmark::kBT;
  spec.cls = NasClass::kA;
  spec.nodes = 4;  // 4 ranks: square
  spec.ranks_per_node = 1;
  const NasKnob knob{8 * 1024, 0};
  EXPECT_EQ(nas_run(spec, knob, Residency::kStreaming,
                    SmiConfig::long_every_second(), 7)
                .hash,
            nas_run(spec, knob, Residency::kRetained,
                    SmiConfig::long_every_second(), 7)
                .hash);
}

TEST(StreamingEqualityTest, EpStreamingMatchesRetained) {
  NasJobSpec spec;
  spec.bench = NasBenchmark::kEP;
  spec.cls = NasClass::kA;
  spec.nodes = 4;
  spec.ranks_per_node = 2;
  const NasKnob knob{0, 0};
  EXPECT_EQ(nas_run(spec, knob, Residency::kStreaming,
                    SmiConfig::short_every_second(), 11)
                .hash,
            nas_run(spec, knob, Residency::kRetained,
                    SmiConfig::short_every_second(), 11)
                .hash);
}

TEST(StreamingEqualityTest, SimulateNasOnceAgreesAcrossModes) {
  // The product entry point against the whole-program oracle on the same
  // system configuration (make_nas_system mirrors simulate_nas_once's).
  const NasJobSpec spec = small_ft();
  const NasKnob knob{16 * 1024, 250};
  const double streaming =
      simulate_nas_once(spec, knob, SmiConfig::long_every_second(), 3, 0.003);
  const NasRun retained = nas_run(spec, knob, Residency::kRetained,
                                  SmiConfig::long_every_second(), 3);
  EXPECT_EQ(retained.elapsed_s, streaming);  // exact, not approximate
}

// --- Faulted runs: try_run parity ------------------------------------------

std::uint64_t faulted_hash(Residency residency, std::uint64_t seed) {
  const NasJobSpec spec = small_ft();
  const NasKnob knob{64 * 1024, 0};
  System sys = make_nas_system(spec, SmiConfig::long_every_second(), seed);
  FaultPlan plan;
  plan.drop(0.05).duplicate(0.05).crash(1, SimTime{1'200'000'000});
  FaultInjector injector{sys, plan};
  const auto placement = block_placement(spec.ranks(), spec.ranks_per_node);
  MpiJobRunResult out =
      residency == Residency::kStreaming
          ? try_run_mpi_job_streaming(sys, spec.ranks(),
                                      make_nas_rank_sources(spec, knob),
                                      placement, WorkloadProfile::dense_fp())
          : try_run_mpi_job(sys, build_nas_trace(spec, knob), placement,
                            WorkloadProfile::dense_fp());
  TraceHash h;
  h.mix(static_cast<std::uint64_t>(out.run.status));
  h.mix_signed(out.run.peak_program_actions > 0 ? 1 : 0);
  mix_system(h, sys);
  return h.value();
}

TEST(StreamingEqualityTest, FaultedRunsMatchAcrossModes) {
  for (const std::uint64_t seed : {7ull, 23ull}) {
    EXPECT_EQ(faulted_hash(Residency::kStreaming, seed),
              faulted_hash(Residency::kRetained, seed))
        << "seed " << seed;
  }
}

// --- peak_program_actions ---------------------------------------------------

TEST(StreamingEqualityTest, StreamingPeakIsFractionOfRetained) {
  const NasJobSpec spec = small_ft();
  const NasKnob knob{16 * 1024, 0};
  const NasRun retained = nas_run(spec, knob, Residency::kRetained,
                                  SmiConfig::none(), 1);
  const NasRun streaming = nas_run(spec, knob, Residency::kStreaming,
                                   SmiConfig::none(), 1);
  EXPECT_EQ(retained.hash, streaming.hash);

  // Retained: the whole job is materialized at spawn. FT A at 8 ranks has
  // 6 alltoall iterations + the checksum allreduce per rank.
  std::int64_t total = 0;
  for (const auto& rp : build_nas_trace(spec, knob)) {
    total += static_cast<std::int64_t>(rp.size());
  }
  EXPECT_EQ(retained.peak_program_actions, total);
  // Streaming: at most one chunk (<= one iteration) per rank at a time.
  EXPECT_LT(streaming.peak_program_actions, retained.peak_program_actions / 3);
  EXPECT_GT(streaming.peak_program_actions, 0);
}

TEST(StreamingEqualityTest, RunResultCarriesPeakProgramActions) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = 1;
  System sys{cfg};
  TaskSpec spec;
  spec.name = "t";
  spec.node = 0;
  spec.actions = std::make_unique<VectorActions>(std::vector<Action>{
      Action{Compute{milliseconds(1)}}, Action{Compute{milliseconds(1)}}});
  sys.spawn(std::move(spec));
  const RunResult r = sys.try_run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.peak_program_actions, 2);
  EXPECT_EQ(sys.peak_program_actions(), 2);
}

// --- ChunkedProgramSource unit behaviour ------------------------------------

TEST(ChunkedProgramSourceTest, DrainsChunksInOrderAndSkipsEmptyOnes) {
  ChunkedProgramSource src{
      0, 1, [](int chunk, RankProgram& rp, TagAllocator& tags) {
        if (chunk >= 4) return false;
        (void)tags;
        if (chunk == 1) return true;  // empty chunk: yields nothing
        rp.compute(milliseconds(chunk + 1));
        rp.sleep(milliseconds(1));
        return true;
      }};
  std::vector<std::int64_t> compute_ms;
  while (auto a = src.next()) {
    if (const auto* c = std::get_if<Compute>(&*a)) {
      compute_ms.push_back(c->work.ns() / 1'000'000);
    }
    EXPECT_LE(src.materialized_actions(), 2);  // never more than one chunk
  }
  EXPECT_EQ(compute_ms, (std::vector<std::int64_t>{1, 3, 4}));
  EXPECT_EQ(src.chunks_emitted(), 4);
  EXPECT_FALSE(src.next().has_value());  // exhausted stays exhausted
}

TEST(ChunkedProgramSourceTest, PerRankTagStreamsAdvanceInLockstep) {
  // Two independent sources for different ranks must allocate identical
  // tag sequences (the lockstep property the collectives rely on).
  std::vector<int> tags_seen[2];
  for (int rank = 0; rank < 2; ++rank) {
    ChunkedProgramSource src{
        rank, 2, [rank, &tags_seen](int chunk, RankProgram& rp,
                                    TagAllocator& tags) {
          if (chunk >= 3) return false;
          tags_seen[rank].push_back(tags.allocate(2));
          rp.compute(milliseconds(1));
          return true;
        }};
    while (src.next()) {
    }
  }
  EXPECT_EQ(tags_seen[0], tags_seen[1]);
  EXPECT_EQ(tags_seen[0], (std::vector<int>{1000, 1002, 1004}));
}

// --- RepeatActions -----------------------------------------------------------

TEST(RepeatActionsTest, MatchesMaterializedVectorExactly) {
  auto run_once = [](bool streaming) {
    SystemConfig cfg;
    cfg.machine = MachineSpec::poweredge_r410_e5620();
    cfg.node_count = 1;
    cfg.smi = SmiConfig::long_every_second();
    cfg.seed = 5;
    System sys{cfg};
    constexpr int kBatches = 2000;
    TaskSpec spec;
    spec.name = "rep";
    spec.node = 0;
    if (streaming) {
      spec.actions = std::make_unique<RepeatActions>(
          Action{Compute{milliseconds(1)}}, kBatches);
    } else {
      spec.actions = std::make_unique<VectorActions>(std::vector<Action>(
          kBatches, Action{Compute{milliseconds(1)}}));
    }
    sys.spawn(std::move(spec));
    sys.run();
    TraceHash h;
    mix_system(h, sys);
    return h.value();
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

TEST(RepeatActionsTest, MaterializedFootprintIsOne) {
  RepeatActions src{Action{Compute{milliseconds(1)}}, 3};
  EXPECT_EQ(src.materialized_actions(), 1);
  int n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, 3);
  EXPECT_FALSE(src.next().has_value());
}

// --- Work queue uniform representation --------------------------------------

TEST(StreamingEqualityTest, UniformWorkQueueMatchesEvenItems) {
  auto run_queue = [](bool uniform) {
    SystemConfig cfg;
    cfg.machine = MachineSpec::poweredge_r410_e5620();
    cfg.node_count = 1;
    cfg.smi = SmiConfig::long_every_second();
    cfg.seed = 13;
    System sys{cfg};
    WorkQueueSpec spec;
    spec.name = "wq";
    spec.workers = 8;
    constexpr int kItems = 500;
    if (uniform) {
      set_even_items(spec, seconds_d(2.0), kItems);
    } else {
      spec.items = even_items(seconds_d(2.0), kItems);
    }
    const WorkQueueResult run = run_work_queue(sys, std::move(spec));
    TraceHash h;
    h.mix_signed(run.finished.ns());
    for (const int n : run.items_per_worker) h.mix_signed(n);
    mix_system(h, sys);
    return h.value();
  };
  EXPECT_EQ(run_queue(true), run_queue(false));
}

}  // namespace
}  // namespace smilab
