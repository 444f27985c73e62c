// Collective communication algorithms, lowered onto blocking point-to-point
// actions. The algorithms are the textbook/MPICH ones:
//   barrier    — dissemination (Hensgen/Finkel/Manber)
//   broadcast  — binomial tree
//   reduce     — binomial tree (mirror of broadcast)
//   allreduce  — recursive doubling (power-of-two), reduce+bcast otherwise
//   allgather  — ring
//   alltoall   — pairwise XOR exchange (power-of-two), ring otherwise
//
// The point of implementing them for real: an SMI that freezes one node
// delays exactly the rounds that depend on that node, which is the
// mechanism behind the max-of-N amplification in Tables 1-3.
#pragma once

#include <cstdint>
#include <span>

#include "smilab/mpi/program.h"

namespace smilab {

// Every collective comes in two forms:
//
//   span form      — append to every rank of a materialized program vector
//                    (whole-program builds: tests, examples, benches);
//   per-rank form  — append ONE rank's share of the collective to a single
//                    RankProgram, advancing that rank's TagAllocator.
//
// The span form is implemented as a loop over the per-rank form with the
// allocator copied in and out (TagAllocator is a plain counter, so every
// rank sees the identical pre-collective tag state and all ranks leave in
// lockstep). The per-rank form is what streaming sources (mpi/streaming.h)
// call from inside chunk emitters: a rank's actions can be produced without
// any other rank's program existing. Per-rank emitters take the
// communicator size from `rp.nranks()`.
//
// Per-rank action order is identical between the two forms: the simulation
// consumes each rank's sequence independently, so the retained/streaming
// equality tests pin bit-identical results.

/// Append a dissemination barrier to every rank's program.
void barrier(std::span<RankProgram> ranks, TagAllocator& tags);
/// Per-rank form (see above).
void barrier(RankProgram& rp, TagAllocator& tags);

/// Binomial-tree broadcast of `bytes` from `root`.
void broadcast(std::span<RankProgram> ranks, int root, std::int64_t bytes,
               TagAllocator& tags);
/// Per-rank form (see above).
void broadcast(RankProgram& rp, int root, std::int64_t bytes,
               TagAllocator& tags);

/// Binomial-tree reduction of `bytes` to `root`.
void reduce(std::span<RankProgram> ranks, int root, std::int64_t bytes,
            TagAllocator& tags);
/// Per-rank form (see above).
void reduce(RankProgram& rp, int root, std::int64_t bytes, TagAllocator& tags);

/// Allreduce of a `bytes`-sized vector on every rank.
void allreduce(std::span<RankProgram> ranks, std::int64_t bytes,
               TagAllocator& tags);
/// Per-rank form (see above).
void allreduce(RankProgram& rp, std::int64_t bytes, TagAllocator& tags);

/// Ring allgather: every rank contributes `bytes_per_rank` and ends with
/// all contributions.
void allgather(std::span<RankProgram> ranks, std::int64_t bytes_per_rank,
               TagAllocator& tags);
/// Per-rank form (see above).
void allgather(RankProgram& rp, std::int64_t bytes_per_rank,
               TagAllocator& tags);

/// All-to-all personalized exchange: every rank sends `bytes_per_pair` to
/// every other rank (FT's transpose step).
void alltoall(std::span<RankProgram> ranks, std::int64_t bytes_per_pair,
              TagAllocator& tags);
/// Per-rank form (see above).
void alltoall(RankProgram& rp, std::int64_t bytes_per_pair,
              TagAllocator& tags);

/// Binomial-tree gather of `bytes_per_rank` from every rank to `root`.
/// Interior tree nodes forward their accumulated subtree payloads.
void gather(std::span<RankProgram> ranks, int root, std::int64_t bytes_per_rank,
            TagAllocator& tags);
/// Per-rank form (see above).
void gather(RankProgram& rp, int root, std::int64_t bytes_per_rank,
            TagAllocator& tags);

/// Binomial-tree scatter of `bytes_per_rank` from `root` to every rank
/// (mirror of gather: interior nodes receive their subtree's payload and
/// split it downward).
void scatter(std::span<RankProgram> ranks, int root, std::int64_t bytes_per_rank,
             TagAllocator& tags);
/// Per-rank form (see above).
void scatter(RankProgram& rp, int root, std::int64_t bytes_per_rank,
             TagAllocator& tags);

/// Reduce-scatter of a vector of `bytes_per_rank * p` bytes: recursive
/// halving for powers of two, reduce+scatter otherwise.
void reduce_scatter(std::span<RankProgram> ranks, std::int64_t bytes_per_rank,
                    TagAllocator& tags);
/// Per-rank form (see above).
void reduce_scatter(RankProgram& rp, std::int64_t bytes_per_rank,
                    TagAllocator& tags);

/// Inclusive prefix scan of `bytes` (linear chain: rank r receives from
/// r-1, combines, forwards to r+1 — the dependency spine that makes scans
/// maximally noise-sensitive).
void scan(std::span<RankProgram> ranks, std::int64_t bytes, TagAllocator& tags);
/// Per-rank form (see above).
void scan(RankProgram& rp, std::int64_t bytes, TagAllocator& tags);

/// Nonblocking all-to-all: every rank posts all its receives, starts all
/// its sends, then waits on everything at once (the MPI_Ialltoall shape).
/// Compared with the pairwise blocking algorithm there is no per-round
/// dependency chain, so SMI delays on one node overlap the other ranks'
/// remaining transfers — the overlap ablation measures the difference.
void alltoall_nonblocking(std::span<RankProgram> ranks,
                          std::int64_t bytes_per_pair, TagAllocator& tags);
/// Per-rank form (see above).
void alltoall_nonblocking(RankProgram& rp, std::int64_t bytes_per_pair,
                          TagAllocator& tags);

[[nodiscard]] constexpr bool is_power_of_two(int n) {
  return n > 0 && (n & (n - 1)) == 0;
}

}  // namespace smilab
