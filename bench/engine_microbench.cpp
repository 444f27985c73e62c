// google-benchmark micro-suite for the simulator itself: event engine
// throughput, cache-model access rate, collective lowering, and small
// end-to-end system runs. These guard the simulator's own performance —
// the table benches run hundreds of simulations per invocation.
//
// Besides the google-benchmark tables, the binary always writes
// BENCH_engine_microbench.json with hand-timed headline numbers (events/s,
// cache refs/s for the batched and the CacheUnfriendly Convolve replays)
// so CI can track the perf trajectory across PRs.
//
// Usage: engine_microbench [--quick] [gbench flags...]
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <vector>

#include "bench_json.h"
#include "smilab/apps/convolve/access_stream.h"
#include "smilab/apps/nas/nas.h"
#include "smilab/cache/cache.h"
#include "smilab/mpi/collectives.h"
#include "smilab/mpi/job.h"
#include "smilab/sim/event_queue.h"
#include "smilab/sim/system.h"
#include "smilab/time/rng.h"

namespace {

using namespace smilab;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      engine.schedule_at(SimTime{(i * 7919) % n}, [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1 << 10)->Arg(1 << 16);

void BM_EngineCancelHalf(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    std::vector<EventId> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ids.push_back(engine.schedule_at(SimTime{i}, [] {}));
    }
    for (int i = 0; i < n; i += 2) engine.cancel(ids[static_cast<std::size_t>(i)]);
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineCancelHalf)->Arg(1 << 14);

// Steady-state slab churn: a bounded pending set with events rescheduling
// themselves, the shape of quantum timers and periodic SMI sources. The
// rebuilt engine runs this allocation-free (slot free list + inline
// callbacks).
void BM_EngineSteadyState(benchmark::State& state) {
  const int chains = 64;
  for (auto _ : state) {
    Engine engine;
    std::int64_t fired = 0;
    const std::int64_t quota = 100'000;
    std::function<void(int)> arm = [&](int lane) {
      if (++fired >= quota) return;
      engine.schedule_after(SimDuration{1 + lane % 7},
                            [&arm, lane] { arm(lane); });
    };
    for (int lane = 0; lane < chains; ++lane) {
      engine.schedule_at(SimTime{lane}, [&arm, lane] { arm(lane); });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_EngineSteadyState);

// Schedule/drain/cancel mix at a fixed live-set size: every firing
// reschedules itself (drain+schedule), and every fourth firing also
// schedules-then-cancels a decoy (the tombstone path). The live-set sizes
// bracket the regimes that matter: 1k (everything cache resident), 100k
// (overflow-heap levels spill L2), 1M (pointer-chase territory, where the
// ladder's bucket locality pays).
//
// Reschedule deltas spread over [1, 1 ms) — the simulator's actual event
// horizon (compute steps are hundreds of µs, network hops µs). Packing
// the whole live set into a ~1 µs span instead would stuff thousands of
// entries into each ladder bucket and measure the sorted-bucket memmove
// worst case, a shape no sim workload produces.
inline constexpr std::uint32_t kMixSpanNs = 1'000'000;

void BM_EngineMix(benchmark::State& state) {
  const auto live = static_cast<int>(state.range(0));
  const std::int64_t quota = live * 4;
  for (auto _ : state) {
    Engine engine;
    std::int64_t fired = 0;
    EventId decoy{};
    std::function<void(int)> arm = [&](int lane) {
      if (++fired >= quota) return;
      engine.schedule_after(SimDuration{1 + (lane * 2654435761u) % kMixSpanNs},
                            [&arm, lane] { arm(lane); });
      if ((fired & 3) == 0) {
        if (decoy.valid()) engine.cancel(decoy);
        decoy = engine.schedule_after(SimDuration{1 << 20}, [] {});
      }
    };
    for (int lane = 0; lane < live; ++lane) {
      engine.schedule_at(SimTime{(lane * 7919) % live}, [&arm, lane] { arm(lane); });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * quota);
}
BENCHMARK(BM_EngineMix)
    ->Arg(1 << 10)->Arg(100'000)->Arg(1 << 20)
    ->Name("BM_EngineMixLadder");

void BM_CacheHierarchyAccess(benchmark::State& state) {
  CacheHierarchy hierarchy = CacheHierarchy::e5620();
  Rng rng{1};
  for (auto _ : state) {
    // 64 MB working set: plenty of misses at every level.
    benchmark::DoNotOptimize(
        hierarchy.access(rng.next_u64() % (64ull << 20)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyAccess);

// Unit-stride replay through the scalar entry point vs the batched one:
// the convolve access stream's dominant shape.
void BM_CacheUnitStrideScalar(benchmark::State& state) {
  CacheHierarchy hierarchy = CacheHierarchy::e5620();
  std::uint64_t addr = 0;
  for (auto _ : state) {
    hierarchy.access(addr);
    addr = (addr + 4) % (24 << 10);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheUnitStrideScalar);

void BM_CacheAccessRunBatched(benchmark::State& state) {
  CacheHierarchy hierarchy = CacheHierarchy::e5620();
  const std::int64_t refs = 1 << 12;
  for (auto _ : state) {
    hierarchy.access_run(0, refs, 4);
    benchmark::DoNotOptimize(hierarchy.stats().accesses);
  }
  state.SetItemsProcessed(state.iterations() * refs);
}
BENCHMARK(BM_CacheAccessRunBatched);

void BM_CollectiveLowering(benchmark::State& state) {
  const auto p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto programs = make_rank_programs(p);
    TagAllocator tags;
    alltoall(programs, 65536, tags);
    allreduce(programs, 1024, tags);
    benchmark::DoNotOptimize(programs[0].size());
  }
}
BENCHMARK(BM_CollectiveLowering)->Arg(16)->Arg(64);

void BM_NasTraceBuild(benchmark::State& state) {
  const NasJobSpec spec{NasBenchmark::kBT, NasClass::kA, 16, 1};
  for (auto _ : state) {
    auto programs = build_nas_trace(spec, NasKnob{4096, 0});
    benchmark::DoNotOptimize(programs.size());
  }
}
BENCHMARK(BM_NasTraceBuild);

void BM_SystemComputeRun(benchmark::State& state) {
  for (auto _ : state) {
    SystemConfig cfg;
    cfg.machine = MachineSpec::poweredge_r410_e5620();
    cfg.smi = SmiConfig::long_every_second();
    System sys{cfg};
    std::vector<Action> prog(100, Action{Compute{milliseconds(100)}});
    sys.spawn(TaskSpec::with_actions("t", 0, std::move(prog)));
    sys.run();
    benchmark::DoNotOptimize(sys.last_finish_time());
  }
}
BENCHMARK(BM_SystemComputeRun);

void BM_MpiJobAlltoall(benchmark::State& state) {
  for (auto _ : state) {
    SystemConfig cfg;
    cfg.machine = MachineSpec::wyeast_e5520();
    cfg.node_count = 8;
    cfg.net = NetworkParams::wyeast();
    cfg.smi = SmiConfig::long_every_second();
    System sys{cfg};
    auto programs = make_rank_programs(8);
    TagAllocator tags;
    for (int iter = 0; iter < 10; ++iter) {
      for (auto& rp : programs) rp.compute(milliseconds(50));
      alltoall(programs, 65536, tags);
    }
    auto result = run_mpi_job(sys, std::move(programs), block_placement(8, 1),
                              WorkloadProfile::dense_fp());
    benchmark::DoNotOptimize(result.elapsed);
  }
}
BENCHMARK(BM_MpiJobAlltoall);

// --- Hand-timed headline probes for BENCH_engine_microbench.json ---------

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Events/second through a schedule-then-drain cycle (scrambled times).
double measure_event_throughput(int n, int rounds) {
  std::int64_t events = 0;
  const double s = wall_seconds([&] {
    for (int round = 0; round < rounds; ++round) {
      Engine engine;
      std::int64_t fired = 0;
      for (int i = 0; i < n; ++i) {
        engine.schedule_at(SimTime{(i * 7919) % n}, [&fired] { ++fired; });
      }
      engine.run();
      events += fired;
    }
  });
  return static_cast<double>(events) / s;
}

/// Events/second in steady state: bounded pending set, self-rescheduling.
double measure_steady_state_throughput(std::int64_t quota) {
  const double s = wall_seconds([&] {
    Engine engine;
    std::int64_t fired = 0;
    std::function<void(int)> arm = [&](int lane) {
      if (++fired >= quota) return;
      engine.schedule_after(SimDuration{1 + lane % 7},
                            [&arm, lane] { arm(lane); });
    };
    for (int lane = 0; lane < 64; ++lane) {
      engine.schedule_at(SimTime{lane}, [&arm, lane] { arm(lane); });
    }
    engine.run();
  });
  return static_cast<double>(quota) / s;
}

/// Events/second through the schedule/drain/cancel mix of BM_EngineMix at
/// a fixed live-set size.
double measure_mix_throughput(int live, std::int64_t quota) {
  std::int64_t fired = 0;
  const double s = wall_seconds([&] {
    Engine engine;
    EventId decoy{};
    std::function<void(int)> arm = [&](int lane) {
      if (++fired >= quota) return;
      engine.schedule_after(SimDuration{1 + (lane * 2654435761u) % kMixSpanNs},
                            [&arm, lane] { arm(lane); });
      if ((fired & 3) == 0) {
        if (decoy.valid()) engine.cancel(decoy);
        decoy = engine.schedule_after(SimDuration{1 << 20}, [] {});
      }
    };
    for (int lane = 0; lane < live; ++lane) {
      engine.schedule_at(SimTime{(lane * 7919) % live}, [&arm, lane] { arm(lane); });
    }
    engine.run();
  });
  return static_cast<double>(fired) / s;
}

/// Cache-model references/second for the convolve-shaped unit-stride replay.
double measure_cache_refs_per_s(std::int64_t refs) {
  CacheHierarchy hierarchy = CacheHierarchy::e5620();
  const double s = wall_seconds([&] {
    hierarchy.access_interleaved(0x1000'0000ull, 4, 0x7000'0000ull, 4, refs / 2);
  });
  benchmark::DoNotOptimize(hierarchy.stats().accesses);
  return static_cast<double>(refs) / s;
}

/// Cache-model references/second for the CacheUnfriendly Convolve replay:
/// scattered pixels, so nearly every reference walks the sets of every
/// level (the shape batching cannot collapse).
double measure_cache_cu_refs_per_s(std::int64_t refs) {
  CacheMeasurement m;
  const double s = wall_seconds([&] {
    m = measure_convolve_cache(ConvolveConfig::cache_unfriendly(),
                               CacheHierarchy::e5620(), refs);
  });
  return static_cast<double>(m.stats.accesses) / s;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip flags google-benchmark does not know (the CI bench loop passes
  // --quick to every bench binary) before handing argv over.
  bool quick = false;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      continue;
    }
    if (std::strncmp(argv[i], "--jobs=", 7) == 0 ||
        std::strncmp(argv[i], "--trials=", 9) == 0 ||
        std::strncmp(argv[i], "--csv=", 6) == 0) {
      continue;  // accepted-and-ignored: shared bench-driver flags
    }
    passthrough.push_back(argv[i]);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  if (quick && pass_argc == 1) {
    // Keep the CI smoke run snappy: one representative benchmark each from
    // the engine and cache families.
    static char filter[] =
        "--benchmark_filter=BM_EngineScheduleRun/1024|BM_CacheAccessRunBatched";
    passthrough.push_back(filter);
    pass_argc = 2;
  }
  passthrough.push_back(nullptr);
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const int scale = quick ? 1 : 4;
  smilab::benchtool::BenchJson json{"engine_microbench"};
  json.set("quick", quick);
  json.set("event_throughput_per_s",
           measure_event_throughput(1 << 16, 4 * scale));
  json.set("event_steady_state_per_s",
           measure_steady_state_throughput(400'000LL * scale));
  json.set("cache_refs_per_s", measure_cache_refs_per_s(4'000'000LL * scale));
  json.set("cache_cu_refs_per_s",
           measure_cache_cu_refs_per_s(2'000'000LL * scale));

  // The mix at three live-set sizes. The floors are the CI trajectory
  // gates (set ~4x under local Release so only a real regression trips on
  // shared runners).
  struct MixPoint {
    const char* tag;
    int live;
  };
  constexpr MixPoint kMixPoints[] = {
      {"1k", 1 << 10}, {"100k", 100'000}, {"1m", 1 << 20}};
  for (const MixPoint& p : kMixPoints) {
    const std::int64_t quota =
        static_cast<std::int64_t>(p.live) * (quick ? 2 : 4);
    json.set(std::string("ladder_mix_per_s_") + p.tag,
             measure_mix_throughput(p.live, quota));
  }
  json.set("ci_floor_ladder_mix_per_s_100k", 600'000.0);
  json.set("ci_floor_ladder_mix_per_s_1m", 300'000.0);
  json.write();
  return 0;
}
