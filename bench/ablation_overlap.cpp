// Extension ablation: does communication/computation overlap hide SMI
// noise?
//
// Same exchange volume and compute per iteration, two formulations:
//   blocking:     pairwise sendrecv rounds (the lowering Tables 1-3 use)
//   nonblocking:  post-all-irecv, start-all-isend, waitall (MPI_Ialltoall)
// Under desynchronized long SMIs the blocking rounds serialize on every
// frozen partner in turn, while the nonblocking form lets a frozen node
// delay only its own transfers. Quantifies how much of the paper's
// amplification an application could buy back by restructuring.
#include <cstdio>

#include "nas_table.h"
#include "smilab/mpi/collectives.h"
#include "smilab/mpi/job.h"

using namespace smilab;

namespace {

double run(int nodes, bool nonblocking, const SmiConfig& smi,
           std::uint64_t seed) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = nodes;
  cfg.net = NetworkParams::wyeast();
  cfg.smi = smi;
  cfg.seed = seed;
  System sys{cfg};
  // Streamed: one iteration per chunk via the per-rank collective forms —
  // the same action/tag sequences the span-form build produces.
  const auto factory = chunked_rank_sources(nodes, [nonblocking](int) {
    return [nonblocking](int chunk, RankProgram& rp, TagAllocator& tags) {
      if (chunk >= 20) return false;
      rp.compute(milliseconds(80));
      if (nonblocking) {
        alltoall_nonblocking(rp, 1 << 17, tags);
      } else {
        alltoall(rp, 1 << 17, tags);
      }
      return true;
    };
  });
  return run_mpi_job_streaming(sys, nodes, factory, block_placement(nodes, 1),
                               WorkloadProfile::dense_fp())
      .elapsed.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = smilab::benchtool::BenchArgs::parse(argc, argv);
  const int trials = args.quick ? 2 : 4;
  std::printf("=== Ablation: does nonblocking overlap hide SMI noise? "
              "(20 x [80ms compute + 128KB-per-pair alltoall], long SMIs @ "
              "1/s, %d trials) ===\n\n", trials);
  std::printf("%6s  %22s  %22s\n", "nodes", "blocking alltoall", "nonblocking alltoall");
  for (const int nodes : {4, 8, 16}) {
    OnlineStats blocking_base, blocking_noisy, nb_base, nb_noisy;
    for (int t = 0; t < trials; ++t) {
      const auto seed = static_cast<std::uint64_t>(nodes * 977 + t * 131);
      blocking_base.add(run(nodes, false, SmiConfig::none(), seed));
      blocking_noisy.add(run(nodes, false, SmiConfig::long_every_second(), seed));
      nb_base.add(run(nodes, true, SmiConfig::none(), seed));
      nb_noisy.add(run(nodes, true, SmiConfig::long_every_second(), seed));
    }
    std::printf("%6d  %13.2fs %+6.1f%%  %13.2fs %+6.1f%%\n", nodes,
                blocking_base.mean(),
                (blocking_noisy.mean() / blocking_base.mean() - 1) * 100,
                nb_base.mean(),
                (nb_noisy.mean() / nb_base.mean() - 1) * 100);
    std::fflush(stdout);
  }
  std::printf(
      "\nReading: restructuring for overlap recovers part (not all) of the\n"
      "SMI amplification — the all-core freeze still steals the duty cycle\n"
      "and the NIC outage still serializes that node's transfers.\n");
  return 0;
}
