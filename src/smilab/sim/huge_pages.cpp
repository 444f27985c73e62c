#include "smilab/sim/huge_pages.h"

#include <sys/mman.h>

#include <limits>
#include <new>

namespace smilab {
namespace {

std::size_t whole_pages(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

}  // namespace

void* map_huge_block(std::size_t bytes) {
  if (bytes == 0 ||
      bytes > std::numeric_limits<std::size_t>::max() - 2 * kHugePageBytes) {
    throw std::bad_alloc();
  }
  const std::size_t size = whole_pages(bytes);
  // mmap aligns to 4 KiB only: map one page more and unmap both overhangs.
  std::size_t span = size + kHugePageBytes;
  void* const raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  void* block = raw;
  std::align(kHugePageBytes, size, block, span);
  char* const start = static_cast<char*>(block);
  const std::size_t head =
      static_cast<std::size_t>(start - static_cast<char*>(raw));
  if (head > 0) munmap(raw, head);
  if (span > size) munmap(start + size, span - size);
  // Advice only: where it fails, the block stays on 4 KiB pages.
  madvise(block, size, MADV_HUGEPAGE);
  return block;
}

void unmap_huge_block(void* block, std::size_t bytes) noexcept {
  munmap(block, whole_pages(bytes));
}

}  // namespace smilab
