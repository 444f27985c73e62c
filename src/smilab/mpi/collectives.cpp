#include "smilab/mpi/collectives.h"

#include <algorithm>
#include <cassert>

namespace smilab {

namespace {
constexpr std::int64_t kControlBytes = 8;  // barrier token payload

int rounds_for(int p) {
  int rounds = 0;
  for (int span = 1; span < p; span <<= 1) ++rounds;
  return rounds;
}

// --- Per-rank emitters ------------------------------------------------------
//
// Each emitter appends exactly rank `rp.rank()`'s share of the collective,
// with the communicator size passed explicitly (`p`): the span forms use
// the span size, the public per-rank forms use rp.nranks(). Every emitter
// advances `tags` by the same amount on every rank — that lockstep is what
// lets the span form run them rank-by-rank from a copied-in allocator, and
// what lets a streaming source reproduce rank r's tags without building
// any other rank.
//
// Round-structured algorithms (barrier, allreduce, allgather, alltoall,
// reduce_scatter) were historically built round-major across ranks; per
// rank the emitted order is still round order, so these loops are the same
// sequences transposed — per-rank output is unchanged.

void barrier_rank(RankProgram& rp, int p, TagAllocator& tags) {
  if (p <= 1) return;
  const int base = tags.allocate(rounds_for(p));
  const int r = rp.rank();
  int round = 0;
  for (int span = 1; span < p; span <<= 1, ++round) {
    const int to = (r + span) % p;
    const int from = (r - span % p + p) % p;
    rp.sendrecv(to, kControlBytes, base + round, from, base + round);
  }
}

void broadcast_rank(RankProgram& rp, int p, int root, std::int64_t bytes,
                    TagAllocator& tags) {
  assert(root >= 0 && root < p);
  if (p <= 1) return;
  const int tag = tags.allocate();
  const int r = rp.rank();
  const int rel = (r - root + p) % p;
  // Receive phase: the lowest set bit of `rel` names the round in which
  // this rank receives its copy.
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const int src = (r - mask + p) % p;
      rp.recv(src, tag);
      break;
    }
    mask <<= 1;
  }
  // Send phase: forward to increasingly distant children.
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const int dst = (r + mask) % p;
      rp.send(dst, bytes, tag);
    }
    mask >>= 1;
  }
}

void reduce_rank(RankProgram& rp, int p, int root, std::int64_t bytes,
                 TagAllocator& tags) {
  assert(root >= 0 && root < p);
  if (p <= 1) return;
  const int tag = tags.allocate();
  const int r = rp.rank();
  const int rel = (r - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((rel & mask) == 0) {
      const int src_rel = rel | mask;
      if (src_rel < p) {
        const int src = (src_rel + root) % p;
        rp.recv(src, tag);
      }
    } else {
      const int dst = ((rel & ~mask) + root) % p;
      rp.send(dst, bytes, tag);
      break;
    }
    mask <<= 1;
  }
}

void allreduce_rank(RankProgram& rp, int p, std::int64_t bytes,
                    TagAllocator& tags) {
  if (p <= 1) return;
  if (!is_power_of_two(p)) {
    // MPICH falls back to reduce+bcast for awkward sizes; good enough here
    // (the paper's rank counts are all powers of two).
    reduce_rank(rp, p, /*root=*/0, bytes, tags);
    broadcast_rank(rp, p, /*root=*/0, bytes, tags);
    return;
  }
  const int rounds = rounds_for(p);
  const int base = tags.allocate(rounds);
  int round = 0;
  for (int span = 1; span < p; span <<= 1, ++round) {
    const int partner = rp.rank() ^ span;
    rp.sendrecv(partner, bytes, base + round, partner, base + round);
  }
}

void allgather_rank(RankProgram& rp, int p, std::int64_t bytes_per_rank,
                    TagAllocator& tags) {
  if (p <= 1) return;
  const int base = tags.allocate(p - 1);
  // Ring: in step s every rank passes the block it received in step s-1 to
  // its right neighbour.
  const int r = rp.rank();
  const int to = (r + 1) % p;
  const int from = (r - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    rp.sendrecv(to, bytes_per_rank, base + s, from, base + s);
  }
}

void alltoall_rank(RankProgram& rp, int p, std::int64_t bytes_per_pair,
                   TagAllocator& tags) {
  if (p <= 1) return;
  const int base = tags.allocate(p - 1);
  const int r = rp.rank();
  if (is_power_of_two(p)) {
    // Pairwise XOR exchange: step s pairs rank with rank^s; every step is a
    // perfect matching, so one frozen node stalls every pair it joins.
    for (int s = 1; s < p; ++s) {
      const int partner = r ^ s;
      rp.sendrecv(partner, bytes_per_pair, base + s - 1, partner, base + s - 1);
    }
    return;
  }
  for (int s = 1; s < p; ++s) {
    const int to = (r + s) % p;
    const int from = (r - s + p) % p;
    rp.sendrecv(to, bytes_per_pair, base + s - 1, from, base + s - 1);
  }
}

void gather_rank(RankProgram& rp, int p, int root, std::int64_t bytes_per_rank,
                 TagAllocator& tags) {
  assert(root >= 0 && root < p);
  if (p <= 1) return;
  const int tag = tags.allocate();
  const int r = rp.rank();
  const int rel = (r - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((rel & mask) == 0) {
      const int src_rel = rel | mask;
      if (src_rel < p) rp.recv((src_rel + root) % p, tag);
    } else {
      // Forward the whole subtree accumulated so far to the parent.
      const int subtree = std::min(mask, p - rel);
      const int parent = ((rel & ~mask) + root) % p;
      rp.send(parent, bytes_per_rank * subtree, tag);
      break;
    }
    mask <<= 1;
  }
}

void scatter_rank(RankProgram& rp, int p, int root, std::int64_t bytes_per_rank,
                  TagAllocator& tags) {
  assert(root >= 0 && root < p);
  if (p <= 1) return;
  const int tag = tags.allocate();
  const int r = rp.rank();
  const int rel = (r - root + p) % p;
  // Receive the subtree payload once (non-root ranks).
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const int src = (r - mask + p) % p;
      rp.recv(src, tag);
      break;
    }
    mask <<= 1;
  }
  // Split downward, farthest child first.
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const int subtree = std::min(mask, p - rel - mask);
      rp.send((r + mask) % p, bytes_per_rank * subtree, tag);
    }
    mask >>= 1;
  }
}

void reduce_scatter_rank(RankProgram& rp, int p, std::int64_t bytes_per_rank,
                         TagAllocator& tags) {
  if (p <= 1) return;
  if (!is_power_of_two(p)) {
    reduce_rank(rp, p, /*root=*/0, bytes_per_rank * p, tags);
    scatter_rank(rp, p, /*root=*/0, bytes_per_rank, tags);
    return;
  }
  // Recursive halving: each round exchanges the half of the vector the
  // partner's side is responsible for; payload halves every round.
  int rounds = 0;
  for (int span = p / 2; span >= 1; span /= 2) ++rounds;
  const int base = tags.allocate(rounds);
  int round = 0;
  for (int half = p / 2; half >= 1; half /= 2, ++round) {
    const std::int64_t bytes = bytes_per_rank * half;
    const int partner = rp.rank() ^ half;
    rp.sendrecv(partner, bytes, base + round, partner, base + round);
  }
}

void scan_rank(RankProgram& rp, int p, std::int64_t bytes, TagAllocator& tags) {
  if (p <= 1) return;
  const int tag = tags.allocate();
  const int r = rp.rank();
  if (r > 0) rp.recv(r - 1, tag);
  if (r < p - 1) rp.send(r + 1, bytes, tag);
}

void alltoall_nonblocking_rank(RankProgram& rp, int p,
                               std::int64_t bytes_per_pair,
                               TagAllocator& tags) {
  if (p <= 1) return;
  const int base = tags.allocate(p);
  const int r = rp.rank();
  std::vector<int> handles;
  handles.reserve(static_cast<std::size_t>(2 * (p - 1)));
  // Post every receive first (pre-posted matches avoid unexpected-queue
  // copies in real MPI; here it exercises the posted-queue path).
  for (int peer = 0; peer < p; ++peer) {
    if (peer == r) continue;
    const int handle = 2 * peer;
    rp.irecv(peer, base + peer, handle);  // tag keyed by the sender
    handles.push_back(handle);
  }
  for (int peer = 0; peer < p; ++peer) {
    if (peer == r) continue;
    const int handle = 2 * peer + 1;
    rp.isend(peer, bytes_per_pair, base + r, handle);
    handles.push_back(handle);
  }
  rp.waitall(std::move(handles));
}

/// Span driver: run the per-rank emitter for every rank from the identical
/// copied-in allocator state, then publish the (lockstep) advanced state.
/// An empty span leaves `tags` untouched, exactly like the old early-outs.
template <typename Emit>
void for_each_rank(std::span<RankProgram> ranks, TagAllocator& tags,
                   Emit&& emit) {
  const int p = static_cast<int>(ranks.size());
  const TagAllocator start = tags;
  for (auto& rp : ranks) {
    TagAllocator t = start;
    emit(rp, p, t);
    tags = t;
  }
}

}  // namespace

// --- Span forms ------------------------------------------------------------

void barrier(std::span<RankProgram> ranks, TagAllocator& tags) {
  for_each_rank(ranks, tags, [](RankProgram& rp, int p, TagAllocator& t) {
    barrier_rank(rp, p, t);
  });
}

void broadcast(std::span<RankProgram> ranks, int root, std::int64_t bytes,
               TagAllocator& tags) {
  for_each_rank(ranks, tags, [&](RankProgram& rp, int p, TagAllocator& t) {
    broadcast_rank(rp, p, root, bytes, t);
  });
}

void reduce(std::span<RankProgram> ranks, int root, std::int64_t bytes,
            TagAllocator& tags) {
  for_each_rank(ranks, tags, [&](RankProgram& rp, int p, TagAllocator& t) {
    reduce_rank(rp, p, root, bytes, t);
  });
}

void allreduce(std::span<RankProgram> ranks, std::int64_t bytes,
               TagAllocator& tags) {
  for_each_rank(ranks, tags, [&](RankProgram& rp, int p, TagAllocator& t) {
    allreduce_rank(rp, p, bytes, t);
  });
}

void allgather(std::span<RankProgram> ranks, std::int64_t bytes_per_rank,
               TagAllocator& tags) {
  for_each_rank(ranks, tags, [&](RankProgram& rp, int p, TagAllocator& t) {
    allgather_rank(rp, p, bytes_per_rank, t);
  });
}

void alltoall(std::span<RankProgram> ranks, std::int64_t bytes_per_pair,
              TagAllocator& tags) {
  for_each_rank(ranks, tags, [&](RankProgram& rp, int p, TagAllocator& t) {
    alltoall_rank(rp, p, bytes_per_pair, t);
  });
}

void gather(std::span<RankProgram> ranks, int root, std::int64_t bytes_per_rank,
            TagAllocator& tags) {
  for_each_rank(ranks, tags, [&](RankProgram& rp, int p, TagAllocator& t) {
    gather_rank(rp, p, root, bytes_per_rank, t);
  });
}

void scatter(std::span<RankProgram> ranks, int root, std::int64_t bytes_per_rank,
             TagAllocator& tags) {
  for_each_rank(ranks, tags, [&](RankProgram& rp, int p, TagAllocator& t) {
    scatter_rank(rp, p, root, bytes_per_rank, t);
  });
}

void reduce_scatter(std::span<RankProgram> ranks, std::int64_t bytes_per_rank,
                    TagAllocator& tags) {
  for_each_rank(ranks, tags, [&](RankProgram& rp, int p, TagAllocator& t) {
    reduce_scatter_rank(rp, p, bytes_per_rank, t);
  });
}

void scan(std::span<RankProgram> ranks, std::int64_t bytes, TagAllocator& tags) {
  for_each_rank(ranks, tags, [&](RankProgram& rp, int p, TagAllocator& t) {
    scan_rank(rp, p, bytes, t);
  });
}

void alltoall_nonblocking(std::span<RankProgram> ranks,
                          std::int64_t bytes_per_pair, TagAllocator& tags) {
  for_each_rank(ranks, tags, [&](RankProgram& rp, int p, TagAllocator& t) {
    alltoall_nonblocking_rank(rp, p, bytes_per_pair, t);
  });
}

// --- Per-rank forms ---------------------------------------------------------

void barrier(RankProgram& rp, TagAllocator& tags) {
  barrier_rank(rp, rp.nranks(), tags);
}

void broadcast(RankProgram& rp, int root, std::int64_t bytes,
               TagAllocator& tags) {
  broadcast_rank(rp, rp.nranks(), root, bytes, tags);
}

void reduce(RankProgram& rp, int root, std::int64_t bytes, TagAllocator& tags) {
  reduce_rank(rp, rp.nranks(), root, bytes, tags);
}

void allreduce(RankProgram& rp, std::int64_t bytes, TagAllocator& tags) {
  allreduce_rank(rp, rp.nranks(), bytes, tags);
}

void allgather(RankProgram& rp, std::int64_t bytes_per_rank,
               TagAllocator& tags) {
  allgather_rank(rp, rp.nranks(), bytes_per_rank, tags);
}

void alltoall(RankProgram& rp, std::int64_t bytes_per_pair,
              TagAllocator& tags) {
  alltoall_rank(rp, rp.nranks(), bytes_per_pair, tags);
}

void gather(RankProgram& rp, int root, std::int64_t bytes_per_rank,
            TagAllocator& tags) {
  gather_rank(rp, rp.nranks(), root, bytes_per_rank, tags);
}

void scatter(RankProgram& rp, int root, std::int64_t bytes_per_rank,
             TagAllocator& tags) {
  scatter_rank(rp, rp.nranks(), root, bytes_per_rank, tags);
}

void reduce_scatter(RankProgram& rp, std::int64_t bytes_per_rank,
                    TagAllocator& tags) {
  reduce_scatter_rank(rp, rp.nranks(), bytes_per_rank, tags);
}

void scan(RankProgram& rp, std::int64_t bytes, TagAllocator& tags) {
  scan_rank(rp, rp.nranks(), bytes, tags);
}

void alltoall_nonblocking(RankProgram& rp, std::int64_t bytes_per_pair,
                          TagAllocator& tags) {
  alltoall_nonblocking_rank(rp, rp.nranks(), bytes_per_pair, tags);
}

}  // namespace smilab
