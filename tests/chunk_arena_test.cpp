// ChunkArena (sim/chunk_arena.h) and HugePageAllocator (sim/huge_pages.h):
// stable addresses, element lifetimes, the chunk size a System picks from
// its cluster, and 2 MiB placement of large blocks.
#include "smilab/sim/chunk_arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "smilab/sim/huge_pages.h"
#include "smilab/sim/system.h"

namespace smilab {
namespace {

bool on_huge_page_boundary(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes == 0;
}

TEST(ChunkArenaTest, AddressesStayStableAcrossChunkBoundaries) {
  ChunkArena<std::int64_t> arena(32);
  ASSERT_EQ(arena.chunk_slots(), 32u);
  std::vector<const std::int64_t*> addresses;
  for (int i = 0; i < 97; ++i) {
    std::int64_t& x = arena.emplace_back();
    EXPECT_EQ(x, 0);
    x = i;
    addresses.push_back(&x);
  }
  EXPECT_EQ(arena.size(), 97u);
  EXPECT_EQ(arena.capacity(), 128u);
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    EXPECT_EQ(&arena[i], addresses[i]);
    EXPECT_EQ(arena[i], static_cast<std::int64_t>(i));
  }
}

TEST(ChunkArenaTest, ChunkHoldsTheExpectedCountRoundedUp) {
  EXPECT_EQ(ChunkArena<std::int64_t>(0).chunk_slots(), 16u);
  EXPECT_EQ(ChunkArena<std::int64_t>(16).chunk_slots(), 16u);
  EXPECT_EQ(ChunkArena<std::int64_t>(17).chunk_slots(), 32u);
  // Never more than one 2 MiB page of slots, however many are expected.
  EXPECT_EQ(ChunkArena<std::int64_t>(std::size_t{1} << 40).chunk_slots(),
            kHugePageBytes / sizeof(std::int64_t));
  ChunkArena<std::int64_t> unused(16);
  EXPECT_EQ(unused.capacity(), 0u);
}

TEST(ChunkArenaTest, ConstAndMutableIndexingReturnTheSameElement) {
  ChunkArena<int> arena(16);
  for (int i = 0; i < 40; ++i) arena.emplace_back() = i * 3;
  const ChunkArena<int>& view = arena;
  int expected = 0;
  for (const int& x : view) {
    EXPECT_EQ(x, expected);
    expected += 3;
  }
  for (std::size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(&view[i], &arena[i]);
  }
}

struct Counted {
  static inline int constructed = 0;
  static inline std::vector<int> destroyed;
  int id = constructed++;
  ~Counted() { destroyed.push_back(id); }
};

TEST(ChunkArenaTest, DestroysEveryElementExactlyOnce) {
  Counted::constructed = 0;
  Counted::destroyed.clear();
  {
    ChunkArena<Counted> arena(16);
    for (int i = 0; i < 41; ++i) arena.emplace_back();
    EXPECT_EQ(Counted::constructed, 41);
    EXPECT_TRUE(Counted::destroyed.empty());
  }
  std::vector<int> ids = Counted::destroyed;
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), 41u);
  for (int i = 0; i < 41; ++i) EXPECT_EQ(ids[static_cast<std::size_t>(i)], i);
}

TEST(ChunkArenaTest, OneNodeSystemHoldsOneSmallChunk) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  const int cpus = cfg.machine.logical_cpus();
  System sys{cfg};
  EXPECT_EQ(sys.task_arena_bytes(), 0u);
  auto spawn = [&sys](int i) {
    std::vector<Action> work;
    work.push_back(Compute{milliseconds(1)});
    sys.spawn(TaskSpec::with_actions("t" + std::to_string(i), 0,
                                     std::move(work)));
  };
  spawn(0);
  const std::size_t one_chunk = sys.task_arena_bytes();
  // The smallest chunk: 16 slots of at most 512 bytes (System pins
  // TaskImpl's size), room for the node's 8 logical CPUs.
  EXPECT_GT(one_chunk, 0u);
  EXPECT_LE(one_chunk, std::size_t{16 * 512});
  int spawned = 1;
  while (sys.task_arena_bytes() == one_chunk && spawned <= 64) {
    spawn(spawned++);
  }
  EXPECT_GE(spawned - 1, cpus);  // tasks the first chunk held
  EXPECT_EQ(sys.task_arena_bytes(), 2 * one_chunk);
  sys.run();
  EXPECT_TRUE(sys.all_finished());
}

struct alignas(64) CacheLine {
  unsigned char bytes[64];
};

TEST(ChunkArenaTest, LargeArenaChunksStartOnHugePageBoundaries) {
  ChunkArena<CacheLine> arena(std::size_t{1} << 20);
  const std::size_t per_chunk = arena.chunk_slots();
  ASSERT_EQ(per_chunk * sizeof(CacheLine), kHugePageBytes);
  for (std::size_t i = 0; i <= per_chunk; ++i) arena.emplace_back();
  EXPECT_TRUE(on_huge_page_boundary(&arena[0]));
  EXPECT_TRUE(on_huge_page_boundary(&arena[per_chunk]));
  EXPECT_EQ(arena[per_chunk].bytes[0], 0);
}

TEST(HugePageAllocatorTest, MapsRequestsOfTwoMebibytesOrMore) {
  using Alloc = HugePageAllocator<std::uint64_t>;
  const std::size_t page_elems = kHugePageBytes / sizeof(std::uint64_t);
  EXPECT_FALSE(Alloc::mapped(page_elems - 1));
  EXPECT_TRUE(Alloc::mapped(page_elems));
  // A size that does not divide 2 MiB is mapped from the first element
  // count whose bytes reach it.
  struct Odd {
    unsigned char bytes[24];
  };
  const std::size_t odd_elems = (kHugePageBytes + sizeof(Odd) - 1) / sizeof(Odd);
  EXPECT_FALSE(HugePageAllocator<Odd>::mapped(odd_elems - 1));
  EXPECT_TRUE(HugePageAllocator<Odd>::mapped(odd_elems));
}

TEST(HugePageAllocatorTest, VectorKeepsItsContentsAcrossTheThreshold) {
  std::vector<std::uint64_t, HugePageAllocator<std::uint64_t>> v;
  const std::size_t page_elems = kHugePageBytes / sizeof(std::uint64_t);
  bool crossed = false;
  // Growth frees heap blocks below the threshold, then a mapped block once
  // a mapped one outgrows it; the contents survive both.
  for (std::uint64_t i = 0; i < 2 * page_elems + 1; ++i) {
    const std::size_t before = v.capacity();
    v.push_back(i * 7);
    if (v.capacity() != before && v.capacity() >= page_elems) {
      crossed = true;
      EXPECT_TRUE(on_huge_page_boundary(v.data())) << v.capacity();
      for (std::uint64_t j = 0; j <= i; ++j) ASSERT_EQ(v[j], j * 7);
    }
  }
  EXPECT_TRUE(crossed);
  EXPECT_GE(v.capacity(), 4 * page_elems);
  // Shrinking below the threshold moves back to the heap and unmaps.
  v.resize(3);
  v.shrink_to_fit();
  EXPECT_LT(v.capacity(), page_elems);
  EXPECT_EQ(v[0], 0u);
  EXPECT_EQ(v[2], 14u);
}

}  // namespace
}  // namespace smilab
