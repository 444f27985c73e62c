// Spawn-order object storage with stable addresses (DESIGN.md §16).
//
// System keeps every rank's TaskImpl here. One make_unique per rank put
// each in its own 16-byte-aligned malloc block, so which cache lines a
// rank's hot fields shared changed from rank to rank. ChunkArena lays the
// objects end to end in chunks of 64 slots, each slot aligned as T is
// (TaskImpl: a cache line). Element i is slot i % 64 of chunk i / 64, a
// shift, a mask and a load from a chunk table that stays cached (1024
// pointers at 65536 ranks), and nothing ever moves, so references survive
// later emplaces. Chunks are allocated uninitialized and a slot is first
// written when its object is constructed, so the slots past the last
// emplace never touch their pages: a small job's System holds one 32 KiB
// chunk of TaskImpl, mostly untouched.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace smilab {

template <typename T>
class ChunkArena {
 public:
  ChunkArena() = default;
  ChunkArena(const ChunkArena&) = delete;
  ChunkArena& operator=(const ChunkArena&) = delete;
  ~ChunkArena() {
    for (T& x : *this) std::destroy_at(&x);
  }

  /// Default-construct the next element; it lives as long as the arena.
  T& emplace_back() {
    if (size_ == chunks_.size() * kChunk) {
      chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunk));
    }
    T& x = *std::construct_at(&slot(size_).value);
    ++size_;
    return x;
  }

  [[nodiscard]] T& operator[](std::size_t i) { return slot(i).value; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk].value;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

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
  static constexpr std::size_t kChunk = 64;

  /// Room for one T. The empty constructor and destructor (`= default`
  /// would be deleted) leave `value`'s bytes unwritten; emplace_back and
  /// ~ChunkArena run its lifetime.
  union Slot {
    Slot() {}
    ~Slot() {}
    T value;
  };

  [[nodiscard]] Slot& slot(std::size_t i) {
    return chunks_[i / kChunk][i % kChunk];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace smilab
