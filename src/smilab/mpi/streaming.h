// Streaming program sources: a rank's trace produced chunk by chunk with
// O(1) retained state, so a job's memory is O(ranks), not O(ranks x actions).
// Every product MPI job runs this way.
//
// A ChunkedProgramSource owns one reusable RankProgram buffer and a private
// TagAllocator, and re-runs an iteration-body emitter per chunk. Looping the
// same emitter to completion builds the whole program (the reference build
// that tests and microbenches run through run_mpi_job), so the per-rank
// action and tag sequences are bit-identical either way — the equality
// suite (tests/streaming_equality_test.cpp) pins it.
//
// Memory discipline: the buffer's vector is cleared (capacity retained)
// between refills, so steady-state refills allocate nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "smilab/mpi/program.h"
#include "smilab/sim/task.h"

namespace smilab {

/// ActionSource that materializes one chunk of a rank's program at a time.
class ChunkedProgramSource final : public ActionSource {
 public:
  /// Append chunk `chunk` (0-based) of this rank's program to `rp`,
  /// advancing `tags` exactly as the whole-program build would have by the
  /// end of that chunk. Return false (appending nothing) when `chunk` is past
  /// the end of the program. Called with strictly increasing chunk indices.
  // smilint: allow(std-function) reason=called once per chunk refill, not per event; chunk granularity amortizes the indirect call
  using ChunkEmitter = std::function<bool(int chunk, RankProgram& rp,
                                          TagAllocator& tags)>;

  ChunkedProgramSource(int rank, int nranks, ChunkEmitter emit)
      : emit_(std::move(emit)), buffer_(rank, nranks) {}

  std::optional<Action> next() override {
    while (pc_ >= buffer_.size()) {
      if (done_) return std::nullopt;
      pc_ = 0;
      buffer_.clear();
      // Skip empty chunks (e.g. a p==1 collective round) without yielding.
      if (!emit_(next_chunk_++, buffer_, tags_)) {
        done_ = true;
        return std::nullopt;
      }
    }
    return std::move(buffer_.mutable_actions()[pc_++]);
  }

  [[nodiscard]] std::int64_t materialized_actions() const override {
    return static_cast<std::int64_t>(buffer_.size());
  }

  /// Chunks emitted so far (tests / diagnostics).
  [[nodiscard]] int chunks_emitted() const { return done_ ? next_chunk_ - 1
                                                          : next_chunk_; }

 private:
  ChunkEmitter emit_;
  TagAllocator tags_;   // this rank's private, deterministic tag stream
  RankProgram buffer_;  // reusable chunk buffer (cleared, never shrunk)
  std::size_t pc_ = 0;
  int next_chunk_ = 0;
  bool done_ = false;
};

/// Factory handed to the streaming job entry points: called once per rank
/// at spawn time to build that rank's source.
using RankSourceFactory =  // smilint: allow(std-function) reason=called once per rank at spawn time only
    std::function<std::unique_ptr<ActionSource>(int rank)>;

/// Convenience: a RankSourceFactory producing ChunkedProgramSources from a
/// per-rank chunk-emitter factory.
[[nodiscard]] inline RankSourceFactory chunked_rank_sources(
    // smilint: allow(std-function) reason=factory runs once per rank at spawn time only
    int nranks, std::function<ChunkedProgramSource::ChunkEmitter(int rank)>
                    emitter_for_rank) {
  return [nranks, emitter_for_rank = std::move(emitter_for_rank)](int rank) {
    return std::make_unique<ChunkedProgramSource>(rank, nranks,
                                                  emitter_for_rank(rank));
  };
}

/// Ring halo exchange, one iteration per chunk: every rank computes 500 us,
/// then sendrecvs `bytes` with both neighbours. Every rank depends on every
/// other within a few iterations, so noise or a fault on one node spreads
/// job-wide. The `smilab faults` job and serve's ring experiment.
[[nodiscard]] inline RankSourceFactory ring_exchange_sources(
    int nranks, int iters, std::int64_t bytes) {
  return chunked_rank_sources(nranks, [=](int rank) {
    return [=](int chunk, RankProgram& rp, TagAllocator& tags) {
      if (chunk >= iters) return false;
      const int tag = tags.allocate(2);
      const int next = (rank + 1) % nranks;
      const int prev = (rank + nranks - 1) % nranks;
      rp.compute(microseconds(500));
      rp.sendrecv(next, bytes, tag, prev, tag);
      rp.sendrecv(prev, bytes, tag + 1, next, tag + 1);
      return true;
    };
  });
}

}  // namespace smilab
