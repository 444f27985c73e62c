// Rank program construction for the simulated MPI runtime ("simmpi").
//
// An MPI job is a vector of RankPrograms, one per rank; collectives are
// lowered onto blocking point-to-point actions by the algorithms in
// collectives.h, so noise propagates through the real dependency structure
// of each algorithm rather than a closed-form cost model.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "smilab/sim/task.h"

namespace smilab {

/// Monotonic tag source; every collective invocation gets a distinct tag
/// window so matching is unambiguous even with identical partners.
class TagAllocator {
 public:
  /// Reserve `width` consecutive tags; returns the first.
  int allocate(int width = 1) {
    const int base = next_;
    next_ += width;
    return base;
  }

 private:
  int next_ = 1000;  // below 1000: reserved for application p2p
};

/// Builder for one rank's action trace.
class RankProgram {
 public:
  RankProgram(int rank, int nranks) : rank_(rank), nranks_(nranks) {
    assert(rank >= 0 && rank < nranks);
  }

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nranks() const { return nranks_; }

  void compute(SimDuration work) {
    if (work > SimDuration::zero()) actions_.push_back(Compute{work});
  }
  void send(int dst, std::int64_t bytes, int tag) {
    assert(dst >= 0 && dst < nranks_ && dst != rank_);
    actions_.push_back(Send{dst, bytes, tag});
  }
  void recv(int src, int tag) {
    assert(src >= 0 && src < nranks_ && src != rank_);
    actions_.push_back(Recv{src, tag});
  }
  /// MPI_ANY_SOURCE receive: matches the globally earliest-arrival message
  /// with `tag` from any rank (funnel/master-worker patterns).
  void recv_any(int tag) { actions_.push_back(Recv{kAnySource, tag}); }
  void sendrecv(int dst, std::int64_t send_bytes, int send_tag, int src,
                int recv_tag) {
    assert(dst >= 0 && dst < nranks_ && dst != rank_);
    assert(src >= 0 && src < nranks_ && src != rank_);
    actions_.push_back(SendRecv{dst, send_bytes, send_tag, src, recv_tag});
  }
  void sleep(SimDuration d) { actions_.push_back(Sleep{d}); }

  // Nonblocking primitives: handles are rank-local; the caller is
  // responsible for waiting on every handle it opens.
  void isend(int dst, std::int64_t bytes, int tag, int handle) {
    assert(dst >= 0 && dst < nranks_ && dst != rank_);
    actions_.push_back(Isend{dst, bytes, tag, handle});
  }
  void irecv(int src, int tag, int handle) {
    assert(src >= 0 && src < nranks_ && src != rank_);
    actions_.push_back(Irecv{src, tag, handle});
  }
  /// Nonblocking MPI_ANY_SOURCE receive (see recv_any).
  void irecv_any(int tag, int handle) {
    actions_.push_back(Irecv{kAnySource, tag, handle});
  }
  void waitall(std::vector<int> handles) {
    actions_.push_back(Action{WaitAll{std::move(handles)}});
  }

  [[nodiscard]] std::size_t size() const { return actions_.size(); }
  [[nodiscard]] const std::vector<Action>& actions() const { return actions_; }

  /// Move the built trace out (the builder is spent afterwards).
  [[nodiscard]] std::vector<Action> take() { return std::move(actions_); }

  // Streaming support (mpi/streaming.h): a ChunkedProgramSource reuses one
  // builder as its per-chunk buffer, clearing between refills so capacity
  // is retained and chunk storage never grows with chunk count.
  void clear() { actions_.clear(); }
  [[nodiscard]] std::vector<Action>& mutable_actions() { return actions_; }

 private:
  int rank_;
  int nranks_;
  std::vector<Action> actions_;
};

/// Create one builder per rank.
[[nodiscard]] inline std::vector<RankProgram> make_rank_programs(int nranks) {
  std::vector<RankProgram> programs;
  programs.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) programs.emplace_back(r, nranks);
  return programs;
}

/// Round-robin block placement of `nranks` ranks over `nodes` nodes with
/// `ranks_per_node` slots per node, matching how the paper launched NPB:
/// ranks fill node 0's slots first, then node 1, ... Returns rank -> node.
[[nodiscard]] inline std::vector<int> block_placement(int nranks,
                                                      int ranks_per_node) {
  assert(nranks >= 1 && ranks_per_node >= 1);
  std::vector<int> nodes(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) nodes[static_cast<std::size_t>(r)] = r / ranks_per_node;
  return nodes;
}

/// Number of nodes the placement uses.
[[nodiscard]] inline int node_count_for(int nranks, int ranks_per_node) {
  return (nranks + ranks_per_node - 1) / ranks_per_node;
}

}  // namespace smilab
