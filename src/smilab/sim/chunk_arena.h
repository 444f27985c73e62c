// Spawn-order object storage with stable addresses (DESIGN.md §16).
//
// System keeps every rank's TaskImpl here. One make_unique per rank put
// each in its own 16-byte-aligned malloc block, so which cache lines a
// rank's hot fields shared changed from rank to rank. ChunkArena lays the
// objects end to end in equal chunks, each slot aligned as T is (TaskImpl:
// a cache line), and nothing ever moves, so references survive later
// emplaces. The owner states how many elements it expects (System: one per
// logical CPU of the cluster) and the chunk size is fixed from that: room
// for them all, but never more than one 2 MiB page holds. So a 1-node
// job's System holds one 8 KiB heap chunk, and a cluster whose TaskImpl
// fill 2 MiB gets 2 MiB chunks on 2 MiB pages (sim/huge_pages.h). Chunks
// are allocated uninitialized and a slot is first written when its object
// is constructed, so the slots past the last emplace touch no page.
//
// Element i is slot i % 16 of run i / 16, where runs_ points at every
// 16-slot run of every chunk: a constant shift, a mask and one load from a
// table of 4096 pointers at 65536 ranks. A chunk size held in a member
// would put a variable shift on every lookup, which made a 1-node
// UnixBench suite ~10% slower.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <vector>

#include "smilab/sim/huge_pages.h"

namespace smilab {

template <typename T>
class ChunkArena {
 public:
  explicit ChunkArena(std::size_t expected)
      : chunk_slots_(
            std::bit_ceil(std::clamp(expected, kRun, page_slots()))) {}
  ChunkArena(const ChunkArena&) = delete;
  ChunkArena& operator=(const ChunkArena&) = delete;
  ~ChunkArena() {
    for (T& x : *this) std::destroy_at(&x);
  }

  /// Default-construct the next element; it lives as long as the arena.
  T& emplace_back() {
    if (size_ == capacity()) add_chunk();
    T& x = *std::construct_at(slot(size_));
    ++size_;
    return x;
  }

  [[nodiscard]] T& operator[](std::size_t i) { return *slot(i); }
  [[nodiscard]] const T& operator[](std::size_t i) const { return *slot(i); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots per chunk: a power of two, at least 16.
  [[nodiscard]] std::size_t chunk_slots() const { return chunk_slots_; }
  /// Slots in the chunks allocated so far.
  [[nodiscard]] std::size_t capacity() const { return runs_.size() * kRun; }

  /// Spawn-order iteration.
  template <typename A, typename V>
  class Iter {
   public:
    Iter(A* arena, std::size_t i) : arena_(arena), i_(i) {}
    V& operator*() const { return (*arena_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iter& o) const { return i_ != o.i_; }

   private:
    A* arena_;
    std::size_t i_;
  };
  [[nodiscard]] auto begin() { return Iter<ChunkArena, T>{this, 0}; }
  [[nodiscard]] auto end() { return Iter<ChunkArena, T>{this, size_}; }
  [[nodiscard]] auto begin() const {
    return Iter<const ChunkArena, const T>{this, 0};
  }
  [[nodiscard]] auto end() const {
    return Iter<const ChunkArena, const T>{this, size_};
  }

 private:
  static constexpr std::size_t kRun = 16;

  /// The most slots, as a power of two, that fit one 2 MiB page.
  static constexpr std::size_t page_slots() {
    return std::max(kRun, std::bit_floor(kHugePageBytes / sizeof(T)));
  }

  /// Frees a chunk's storage; its objects are destroyed by ~ChunkArena.
  struct Free {
    std::size_t slots;
    void operator()(T* p) const noexcept {
      HugePageAllocator<T>{}.deallocate(p, slots);
    }
  };

  void add_chunk() {
    std::unique_ptr<T[], Free> chunk{
        HugePageAllocator<T>{}.allocate(chunk_slots_), Free{chunk_slots_}};
    T* const base = chunk.get();
    chunks_.push_back(std::move(chunk));
    for (std::size_t k = 0; k < chunk_slots_; k += kRun) {
      runs_.push_back(base + k);
    }
  }

  [[nodiscard]] T* slot(std::size_t i) const {
    return runs_[i / kRun] + i % kRun;
  }

  std::vector<T*> runs_;  ///< run r holds elements [16r, 16r + 16)
  std::vector<std::unique_ptr<T[], Free>> chunks_;  ///< owns the storage
  std::size_t chunk_slots_;
  std::size_t size_ = 0;
};

}  // namespace smilab
