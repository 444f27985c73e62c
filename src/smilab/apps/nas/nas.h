// NAS Parallel Benchmark workload models: EP, BT, FT (the paper's MPI
// study, Section III).
//
// Each benchmark is modelled by its real iteration/communication structure:
//   EP — embarrassingly parallel: one big compute, then small allreduces.
//   BT — block tri-diagonal: 200 iterations of compute + neighbour
//        exchanges on a logical torus (multi-partition face traffic).
//   FT — 3-D FFT: niter iterations of compute + a full all-to-all
//        transpose.
//
// Compute volume comes from the paper's single-rank baselines; the per-
// message exchange size is a calibration knob fitted so the simulated
// no-SMI runtime reproduces the paper's SMM-0 column (see runner.h). The
// SMI deltas are then emergent, not fitted.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "smilab/mpi/program.h"
#include "smilab/mpi/streaming.h"

namespace smilab {

enum class NasBenchmark { kEP, kBT, kFT };
enum class NasClass { kA, kB, kC };

[[nodiscard]] const char* to_string(NasBenchmark bench);
[[nodiscard]] const char* to_string(NasClass cls);

/// One cell of the paper's tables: a benchmark at a class, run on `nodes`
/// nodes with 1 or 4 ranks per node (the tables' "MPI rks" column counts
/// nodes; total ranks = nodes * ranks_per_node).
struct NasJobSpec {
  NasBenchmark bench = NasBenchmark::kEP;
  NasClass cls = NasClass::kA;
  int nodes = 1;
  int ranks_per_node = 1;
  bool htt = false;  ///< HTT siblings online on every node

  [[nodiscard]] int ranks() const { return nodes * ranks_per_node; }
};

/// Serial compute work (seconds on one Wyeast core), from the paper's
/// 1-rank SMM-0 baselines (FT class C extrapolated from B by grid ratio).
[[nodiscard]] double nas_serial_work_seconds(NasBenchmark bench, NasClass cls);

/// Timed iterations (NPB reference values: BT 200; FT 6/20/20; EP is a
/// single phase).
[[nodiscard]] int nas_iterations(NasBenchmark bench, NasClass cls);

/// Grid points of the class problem (for the FT memory-footprint model).
[[nodiscard]] std::int64_t nas_grid_points(NasBenchmark bench, NasClass cls);

/// "Work completed" units for the benchmark's throughput metric (the paper
/// records time, work completed, and Mop/s): EP counts random pairs
/// processed, BT and FT count cell updates (grid points x timed
/// iterations). Mop/s = this / elapsed / 1e6.
[[nodiscard]] double nas_work_units(NasBenchmark bench, NasClass cls);

/// Short label for the work unit ("pairs", "cell updates").
[[nodiscard]] const char* nas_work_unit_name(NasBenchmark bench);

/// Estimated resident bytes per rank (arrays + communication buffers).
[[nodiscard]] double nas_bytes_per_rank(NasBenchmark bench, NasClass cls,
                                        int ranks);

/// Whether the job fits in node memory (the constraint that gates large FT
/// configurations on 12 GB nodes).
[[nodiscard]] bool nas_fits_memory(const NasJobSpec& spec, double node_ram_gb);

/// Whether the paper reports this cell. FT class C on 1-2 nodes with one
/// rank per node appears as "-" in Table 3 (runs of ~25 minutes x 6 trials
/// x 3 SMM settings were evidently not measured); we mirror the table.
[[nodiscard]] bool nas_paper_reports(const NasJobSpec& spec);

/// Calibrated workload knobs for one cell (see runner.h): the exchange
/// payload reproduces the communication share of the paper baseline, and a
/// small per-iteration compute pad absorbs the residual the discrete
/// network model cannot hit exactly (rendezvous-threshold jumps).
struct NasKnob {
  std::int64_t exchange_bytes = 0;  ///< per message (BT) / per pair (FT)
  std::int64_t iter_pad_ns = 0;     ///< added to each iteration's compute
};

/// Build the whole per-rank traces for a cell under the given knobs: the
/// reference build that tests and engine_microbench run through
/// run_mpi_job. It loops emit_nas_chunk per rank, so it and the streaming
/// sources are the same sequence by construction.
[[nodiscard]] std::vector<RankProgram> build_nas_trace(const NasJobSpec& spec,
                                                       const NasKnob& knob);

/// Number of streaming chunks in a cell's per-rank program: EP is a single
/// phase; BT one chunk per iteration; FT one per iteration plus the
/// checksum-allreduce epilogue.
[[nodiscard]] int nas_chunk_count(const NasJobSpec& spec);

/// Append chunk `chunk` (0-based) of rank `rp.rank()`'s program to `rp`,
/// advancing that rank's private tag stream. Returns false (appending
/// nothing) once `chunk` is past nas_chunk_count. Every rank's allocator
/// advances in lockstep, so per-rank tag sequences match the whole-program
/// shared-allocator build exactly.
[[nodiscard]] bool emit_nas_chunk(const NasJobSpec& spec, const NasKnob& knob,
                                  int chunk, RankProgram& rp,
                                  TagAllocator& tags);

/// Streaming source for one rank: a ChunkedProgramSource over
/// emit_nas_chunk, holding one iteration's actions at a time.
[[nodiscard]] std::unique_ptr<ActionSource> make_nas_rank_source(
    const NasJobSpec& spec, const NasKnob& knob, int rank);

/// Factory for run_mpi_job_streaming covering every rank of the cell.
[[nodiscard]] RankSourceFactory make_nas_rank_sources(const NasJobSpec& spec,
                                                      const NasKnob& knob);

/// The paper's measured SMM-0 baseline for a cell, if reported (seconds).
[[nodiscard]] std::optional<double> nas_paper_baseline(const NasJobSpec& spec);

/// A full paper table cell: measured seconds under no/short/long SMIs.
struct NasPaperCell {
  double smm0 = 0.0;
  double smm1 = 0.0;
  double smm2 = 0.0;
  [[nodiscard]] double short_pct() const { return (smm1 / smm0 - 1.0) * 100.0; }
  [[nodiscard]] double long_pct() const { return (smm2 / smm0 - 1.0) * 100.0; }
};

/// Paper values for a cell. `spec.htt` selects between the base tables
/// (1-3, HTT off) and the HTT-on columns of Tables 4-5 (EP/FT with 4 ranks
/// per node only). nullopt for cells the paper does not report, which
/// include every ranks-per-node count other than 1 and 4.
[[nodiscard]] std::optional<NasPaperCell> nas_paper_cell(const NasJobSpec& spec);

/// BT requires a square rank count, FT a power of two; EP anything.
[[nodiscard]] bool nas_valid_rank_count(NasBenchmark bench, int ranks);

}  // namespace smilab
