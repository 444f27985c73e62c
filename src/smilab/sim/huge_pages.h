// 2 MiB-page blocks for the stores that grow with ranks or nodes
// (DESIGN.md §16, "Per-rank stores on 2 MiB pages").
//
// At 65536 ranks the per-rank state is ~100 MB. On 4 KiB pages the
// second-level TLB covers about 8 MB of it, so nearly every first touch of
// a rank's state costs a page walk. A request of 2 MiB or more therefore
// gets its own mapping: 2 MiB-aligned, rounded up to whole 2 MiB pages and
// marked MADV_HUGEPAGE, which a host whose transparent huge pages are in
// `madvise` mode needs before it backs the block with 2 MiB pages. Where
// the advice fails or THP is `never`, the same block stays on 4 KiB pages
// and nothing else changes. munmap hands a freed block back to the kernel
// at once, where the malloc heap would keep it. Smaller requests stay on
// the heap, so a small job's stores hold only what they use. The request
// size is the only input.
#pragma once

#include <cstddef>
#include <memory>

namespace smilab {

/// Requests of at least this many bytes are mapped on their own.
inline constexpr std::size_t kHugePageBytes = std::size_t{1} << 21;

/// A 2 MiB-aligned, MADV_HUGEPAGE mapping of `bytes` rounded up to whole
/// 2 MiB pages, zero-filled. Throws std::bad_alloc.
[[nodiscard]] void* map_huge_block(std::size_t bytes);
/// Unmap a block from map_huge_block; `bytes` is the size it was asked for.
void unmap_huge_block(void* block, std::size_t bytes) noexcept;

/// std::allocator, except that requests of kHugePageBytes or more come from
/// map_huge_block.
template <typename T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  [[nodiscard]] static bool mapped(std::size_t n) {
    return n >= (kHugePageBytes + sizeof(T) - 1) / sizeof(T);
  }
  [[nodiscard]] T* allocate(std::size_t n) {
    if (mapped(n)) return static_cast<T*>(map_huge_block(n * sizeof(T)));
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (mapped(n)) {
      unmap_huge_block(p, n * sizeof(T));
    } else {
      std::allocator<T>{}.deallocate(p, n);
    }
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace smilab
