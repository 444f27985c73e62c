// A guided tour of the paper's findings in one short run — each section
// demonstrates one claim with a minimal experiment. The full-fidelity
// reproductions live in bench/; this is the five-minute version.
//
//   ./build/examples/example_paper_tour
#include <cstdio>

#include "smilab/smilab.h"

using namespace smilab;

namespace {

double compute_wall(const SmiConfig& smi, int nodes, std::uint64_t seed,
                    bool synchronizing) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = nodes;
  cfg.net = NetworkParams::wyeast();
  cfg.smi = smi;
  cfg.seed = seed;
  System sys{cfg};
  sys.set_online_cpus(cfg.machine.cores());  // HTT off, like Tables 1-3
  // Streamed one iteration per chunk (per-rank allreduce form): the same
  // sequences the span-form build produces, without materializing them.
  const auto factory =
      chunked_rank_sources(nodes, [nodes, synchronizing](int) {
        return [nodes, synchronizing](int chunk, RankProgram& rp,
                                      TagAllocator& tags) {
          if (chunk >= 25) return false;
          rp.compute(milliseconds(200));
          if (synchronizing && nodes > 1) allreduce(rp, 4096, tags);
          return true;
        };
      });
  return run_mpi_job_streaming(sys, nodes, factory, block_placement(nodes, 1),
                               WorkloadProfile::dense_fp())
      .elapsed.seconds();
}

}  // namespace

int main() {
  std::printf("smilab: the paper's findings, in order\n");
  std::printf("======================================\n\n");

  std::printf("1. Short SMIs are (nearly) free; long SMIs cost their duty "
              "cycle.\n");
  {
    const double base = compute_wall(SmiConfig::none(), 1, 1, false);
    const double shrt = compute_wall(SmiConfig::short_every_second(), 1, 1, false);
    const double lng = compute_wall(SmiConfig::long_every_second(), 1, 1, false);
    std::printf("   5s of compute: short SMIs %+0.2f%%, long SMIs %+0.2f%% "
                "(duty cycle 105/1000 = 10.5%%)\n\n",
                (shrt / base - 1) * 100, (lng / base - 1) * 100);
  }

  std::printf("2. Synchronization amplifies long-SMI noise with node count.\n");
  std::printf("   nodes:  ");
  for (const int nodes : {1, 4, 16}) {
    const double base = compute_wall(SmiConfig::none(), nodes, 2, true);
    const double lng = compute_wall(SmiConfig::long_every_second(), nodes, 2, true);
    std::printf("%d -> %+0.1f%%   ", nodes, (lng / base - 1) * 100);
  }
  std::printf("\n   (each allreduce waits for whichever node froze last)\n\n");

  std::printf("3. The OS misattributes SMM time to the running task.\n");
  {
    SystemConfig cfg;
    cfg.machine = MachineSpec::poweredge_r410_e5620();
    cfg.smi = SmiConfig::long_every_second();
    cfg.seed = 3;
    System sys{cfg};
    std::vector<Action> prog;
    prog.push_back(Compute{seconds(10)});
    const TaskId id = sys.spawn(TaskSpec::with_actions("victim", 0, std::move(prog)));
    sys.run();
    const AttributionReport report = AttributionReport::from(sys.task_stats(id));
    std::printf("   profiler view: %.3fs of CPU; truth: %.3fs compute + "
                "%.3fs frozen in SMM (%.1f%% misattributed)\n\n",
                report.os_view.seconds(), report.true_time.seconds(),
                report.misattributed.seconds(),
                report.misattribution_fraction * 100);
  }

  std::printf("4. ...but a TSC-gap detector sees every SMI.\n");
  {
    SystemConfig cfg;
    cfg.machine = MachineSpec::poweredge_r410_e5620();
    cfg.smi = SmiConfig::long_every_second();
    cfg.seed = 4;
    System sys{cfg};
    HwlatConfig config;
    config.duration = seconds(15);
    config.window = seconds(1);
    config.period = seconds(1);
    const HwlatReport report = run_hwlat_detector(sys, config);
    std::printf("   hwlat: %lld/%lld SMIs detected, gap mean %.1f ms (true "
                "band 100-110 ms)\n\n",
                static_cast<long long>(report.hits),
                static_cast<long long>(report.true_smis_during_windows),
                report.gap_us.mean() / 1e3);
  }

  std::printf("5. HTT interacts: compute pays extra warm-up, comm-heavy jobs "
              "recover faster.\n");
  {
    NasRunOptions options;
    options.trials = 2;
    const NasCellResult ep_off =
        run_nas_cell({NasBenchmark::kEP, NasClass::kA, 1, 4, false}, options);
    const NasCellResult ep_on =
        run_nas_cell({NasBenchmark::kEP, NasClass::kA, 1, 4, true}, options);
    const NasCellResult ft_off =
        run_nas_cell({NasBenchmark::kFT, NasClass::kC, 8, 4, false}, options);
    const NasCellResult ft_on =
        run_nas_cell({NasBenchmark::kFT, NasClass::kC, 8, 4, true}, options);
    std::printf("   EP A under long SMIs: HTT %+0.1f%% (paper +4.8%%); "
                "FT C x8 nodes: HTT %+0.1f%% (paper -4.5%%)\n\n",
                (ep_on.smm2.mean() / ep_off.smm2.mean() - 1) * 100,
                (ft_on.smm2.mean() / ft_off.smm2.mean() - 1) * 100);
  }

  std::printf("6. The 600 ms knee: SMI gaps below it hurt multithreaded "
              "codes badly.\n   gap(ms) -> slowdown: ");
  for (const int gap : {1200, 600, 200, 50}) {
    const auto workload = ConvolveWorkload::cache_unfriendly_workload();
    const double base = run_convolve_sim(workload, 4, SmiConfig::none(), 6).seconds;
    const double noisy =
        run_convolve_sim(workload, 4, SmiConfig::long_with_gap(gap), 6).seconds;
    std::printf("%d:%.2fx  ", gap, noisy / base);
  }
  std::printf("\n\nSee bench/ for the full tables and figures, and "
              "EXPERIMENTS.md for the\npaper-vs-measured record.\n");
  return 0;
}
