// Open-addressed key->value table for the transport's matching stores
// (DESIGN.md §16).
//
// The transport's bucket maps churn one insert+erase pair per message, so
// a node-based map's allocation per insert and free per erase would
// dominate matching above a few thousand ranks. FlatKeyMap stores
// (key, value) pairs inline in one power-of-two slot array: linear probing
// on a splitmix64-hashed key, backward-shift deletion (no tombstones, so
// probe chains never rot), and growth by doubling at 3/4 load. Erase frees
// nothing and insert allocates only on growth, so steady-state churn is
// allocation-free; memory is bounded by the high-water concurrent key
// count, mirroring the message pool's in-flight bound.
//
// Determinism (smilint D3 discipline): the table is match-by-key on the
// hot path — find, get_or_insert, erase. for_each visits slots in probe
// order, which depends on insertion history; callers must sort whatever
// they collect before it can reach simulation state or output.
//
// Keys are raw 64-bit values; ~0 is reserved as the empty sentinel. The
// transport's keys — ((src+1)<<32)|tag with src >= 0, plain tags, and
// monotonically allocated ack keys — can never collide with it.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "smilab/core/fnv.h"

namespace smilab {

template <typename V>
class FlatKeyMap {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  [[nodiscard]] V* find(std::uint64_t key) {
    assert(key != kEmptyKey);
    if (size_ == 0) return nullptr;
    std::size_t i = home(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) return &slots_[i].val;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<FlatKeyMap*>(this)->find(key);
  }

  /// Value for `key`, default-constructing it on first sight. The
  /// reference is invalidated by any later insert (growth) or erase
  /// (backward shift) — use it immediately, as with vector growth.
  [[nodiscard]] V& get_or_insert(std::uint64_t key) {
    assert(key != kEmptyKey);
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    std::size_t i = home(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) return slots_[i].val;
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    slots_[i].val = V{};
    ++size_;
    return slots_[i].val;
  }

  /// Remove `key` if present. Backward-shift deletion: every entry whose
  /// probe chain crossed the vacated slot moves one step back toward its
  /// home, so lookups stay tombstone-free forever.
  void erase(std::uint64_t key) {
    assert(key != kEmptyKey);
    if (size_ == 0) return;
    std::size_t i = home(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmptyKey) return;
      i = (i + 1) & mask_;
    }
    --size_;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (slots_[j].key == kEmptyKey) break;
      const std::size_t k = home(slots_[j].key);
      // The entry at j may fill the hole at i only if i lies on its probe
      // path, i.e. the cyclic distance home->hole does not exceed the
      // cyclic distance home->current.
      if (((i - k) & mask_) <= ((j - k) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i].key = kEmptyKey;
    slots_[i].val = V{};
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Drop every entry, keeping the slot array (steady-state reuse).
  void clear() {
    for (Slot& s : slots_) {
      s.key = kEmptyKey;
      s.val = V{};
    }
    size_ = 0;
  }

  /// Pre-size for about `n` concurrent keys (e.g. a rank-count hint).
  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * 3 < n * 4) want *= 2;
    if (want > capacity()) rehash(want);
  }

  /// Visit every (key, value) in probe order — NOT deterministic across
  /// insertion histories. Diagnostics and invariant checks only; sort
  /// before any simulation-visible effect (see file header).
  template <typename F>
  void for_each(F&& f) const {
    if (size_ == 0) return;
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) f(s.key, s.val);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    V val{};
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(splitmix64(key)) & mask_;
  }

  // First allocation is deliberately tiny: the transport instantiates one
  // map per task per index, and at 64k ranks a 16-slot opening bid costs
  // ~50 MB before any rank holds more than a couple of concurrent keys.
  static constexpr std::size_t kMinCapacity = 4;

  void grow() { rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2); }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    for (Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace smilab
