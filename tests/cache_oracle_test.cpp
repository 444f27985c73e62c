// Differential test of the cache model against a stamped true-LRU
// reference. The reference is the straightforward model: every way holds a
// tag, a valid bit and a last-use stamp; a miss fills an empty way first,
// else evicts the smallest stamp; every reference is one scalar access.
// The product model (recency-ordered sets, batched replays) must classify
// every access identically and end with identical stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "smilab/cache/cache.h"

namespace smilab {
namespace {

class StampedCache {
 public:
  explicit StampedCache(CacheConfig config)
      : set_count_(config.sets()),
        assoc_(static_cast<std::size_t>(config.associativity)),
        line_shift_(std::countr_zero(static_cast<unsigned>(config.line_bytes))),
        ways_(set_count_ * assoc_) {}

  bool access(std::uint64_t addr) {
    ++clock_;
    const std::uint64_t line = addr >> line_shift_;
    Way* base = &ways_[(line % set_count_) * assoc_];
    const std::uint64_t tag = line / set_count_;
    Way* victim = base;
    for (std::size_t w = 0; w < assoc_; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.lru = clock_;
        return true;
      }
      if (!way.valid) {
        victim = &way;  // prefer an invalid way
      } else if (victim->valid && way.lru < victim->lru) {
        victim = &way;
      }
    }
    *victim = Way{tag, clock_, true};
    return false;
  }

  [[nodiscard]] bool contains(std::uint64_t addr) const {
    const std::uint64_t line = addr >> line_shift_;
    const Way* base = &ways_[(line % set_count_) * assoc_];
    for (std::size_t w = 0; w < assoc_; ++w) {
      if (base[w].valid && base[w].tag == line / set_count_) return true;
    }
    return false;
  }

  void flush() {
    for (Way& way : ways_) way.valid = false;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // last-use stamp
    bool valid = false;
  };

  std::size_t set_count_;
  std::size_t assoc_;
  int line_shift_;
  std::vector<Way> ways_;  // set-major
  std::uint64_t clock_ = 0;
};

class StampedHierarchy {
 public:
  StampedHierarchy(CacheConfig l1, CacheConfig l2, CacheConfig l3)
      : l1_(l1), l2_(l2), l3_(l3) {}

  CacheLevel access(std::uint64_t addr) {
    ++stats_.accesses;
    if (l1_.access(addr)) {
      ++stats_.l1_hits;
      return CacheLevel::kL1;
    }
    if (l2_.access(addr)) {
      ++stats_.l2_hits;
      return CacheLevel::kL2;
    }
    if (l3_.access(addr)) {
      ++stats_.l3_hits;
      return CacheLevel::kL3;
    }
    ++stats_.memory_accesses;
    return CacheLevel::kMemory;
  }

  void flush() {
    l1_.flush();
    l2_.flush();
    l3_.flush();
  }

  [[nodiscard]] const HierarchyStats& stats() const { return stats_; }

 private:
  StampedCache l1_;
  StampedCache l2_;
  StampedCache l3_;
  HierarchyStats stats_;
};

struct Geometry {
  const char* name;
  CacheConfig l1, l2, l3;
};

// The production machine (64-set L1 and 512-set L2 index by mask, the
// 12288-set L3 by modulo) and a small hierarchy with a direct-mapped L1
// and no power-of-two set count at any level.
const Geometry kGeometries[] = {
    {"e5620",
     {.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8},
     {.size_bytes = 256 * 1024, .line_bytes = 64, .associativity = 8},
     {.size_bytes = 12 * 1024 * 1024, .line_bytes = 64, .associativity = 16}},
    {"odd",
     {.size_bytes = 48 * 64, .line_bytes = 64, .associativity = 1},
     {.size_bytes = 96 * 4 * 64, .line_bytes = 64, .associativity = 4},
     {.size_bytes = 768 * 8 * 64, .line_bytes = 64, .associativity = 8}},
};

struct XorShift {
  std::uint64_t state;
  std::uint64_t operator()() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

// Deterministic address stream mixing tight line reuse, strided walks and
// far jumps (set conflicts, evictions) inside `footprint` bytes.
template <typename Fn>
void replay_mixed_stream(std::uint64_t seed, int n, std::uint64_t footprint,
                         Fn&& touch) {
  XorShift next{seed};
  std::uint64_t addr = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t r = next();
    if (r % 8 < 5) {
      addr += r % 32;  // stay on/near the current line
    } else if (r % 8 < 7) {
      addr += 64 + r % 192;  // short stride to a nearby line
    } else {
      addr = r % footprint;  // far jump
    }
    touch(addr);
  }
}

// Touch every probe address in both models and require the same level;
// this compares residency, not just counters.
void expect_same_residency(CacheHierarchy& product, StampedHierarchy& oracle,
                           std::uint64_t footprint) {
  for (std::uint64_t a = 0; a < footprint; a += 64 * 1024 + 64) {
    ASSERT_EQ(product.access(a), oracle.access(a)) << "probe " << a;
  }
  EXPECT_EQ(product.stats(), oracle.stats());
}

TEST(CacheOracleTest, SingleLevelMatchesPerAccess) {
  // Every associativity shape the hierarchy can hand a level: direct
  // mapped, 2- and 16-way, power-of-two and odd set counts, 32 B lines.
  const CacheConfig configs[] = {
      {.size_bytes = 512, .line_bytes = 64, .associativity = 1},
      {.size_bytes = 7 * 64, .line_bytes = 64, .associativity = 1},
      {.size_bytes = 6 * 2 * 64, .line_bytes = 64, .associativity = 2},
      {.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8},
      {.size_bytes = 12 * 16 * 32, .line_bytes = 32, .associativity = 16},
  };
  for (const CacheConfig& config : configs) {
    SCOPED_TRACE(testing::Message() << config.sets() << " sets x "
                                    << config.associativity << " ways");
    SetAssocCache product{config};
    StampedCache oracle{config};
    std::uint64_t misses = 0;
    int step = 0;
    replay_mixed_stream(0x9E3779B97F4A7C15ull, 50'000,
                        config.size_bytes * 4, [&](std::uint64_t a) {
      const bool hit = oracle.access(a);
      misses += hit ? 0 : 1;
      ASSERT_EQ(product.access(a), hit) << "access " << step;
      // contains() on a nearby line and an arbitrary one, neither of which
      // may perturb either model.
      ASSERT_EQ(product.contains(a + 64), oracle.contains(a + 64));
      ASSERT_EQ(product.contains(a * 7), oracle.contains(a * 7));
      if (++step % 9973 == 0) {
        product.flush();
        oracle.flush();
      }
    });
    EXPECT_EQ(product.accesses(), 50'000u);
    EXPECT_EQ(product.misses(), misses);
  }
}

TEST(CacheOracleTest, MixedStreamMatchesStampedModel) {
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(g.name);
    CacheHierarchy product{g.l1, g.l2, g.l3};
    StampedHierarchy oracle{g.l1, g.l2, g.l3};
    const std::uint64_t footprint = g.l3.size_bytes * 2 / 3;
    int step = 0;
    replay_mixed_stream(0x2545f4914f6cdd1dull, 200'000, footprint,
                        [&](std::uint64_t a) {
      ASSERT_EQ(product.access(a), oracle.access(a)) << "access " << step;
      if (++step == 120'000) {
        product.flush();
        oracle.flush();
      }
    });
    EXPECT_EQ(product.stats(), oracle.stats());
    expect_same_residency(product, oracle, footprint);
  }
}

// Convolve-shaped replay: output pixels in a scattered order, each a
// clipped window of image/kernel row pairs in lockstep plus one output
// store. The product lowers every row to access_interleaved, as
// measure_convolve_cache does; the oracle replays it reference by
// reference.
TEST(CacheOracleTest, ConvolveReplayMatchesStampedModel) {
  struct Shape {
    const char* name;
    int image_w, image_h, kernel;
    std::uint64_t pixel_stride;
    int pixels;
  };
  const Shape shapes[] = {
      {"unfriendly", 800, 600, 3, 64, 40'000},  // padded records
      {"friendly", 96, 96, 31, 4, 600},         // dense floats, wide kernel
  };
  constexpr std::uint64_t kImage = 0x1000'0000ULL;
  constexpr std::uint64_t kKernel = 0x7000'0000ULL;
  constexpr std::uint64_t kOutput = 0x9000'0000ULL;
  for (const Geometry& g : kGeometries) {
    for (const Shape& s : shapes) {
      SCOPED_TRACE(testing::Message() << g.name << " / " << s.name);
      CacheHierarchy product{g.l1, g.l2, g.l3};
      StampedHierarchy oracle{g.l1, g.l2, g.l3};
      XorShift next{0xC0FFEEull};
      const int r = s.kernel / 2;
      const auto w = static_cast<std::uint64_t>(s.image_w);
      for (int p = 0; p < s.pixels; ++p) {
        const auto x = static_cast<int>(next() % static_cast<std::uint64_t>(s.image_w));
        const auto y = static_cast<int>(next() % static_cast<std::uint64_t>(s.image_h));
        for (int dy = -r; dy <= r; ++dy) {
          const int sy = y + dy;
          if (sy < 0 || sy >= s.image_h) continue;
          const int dx0 = std::max(-r, -x);
          const int dx1 = std::min(r, s.image_w - 1 - x);
          const std::uint64_t a =
              kImage + (static_cast<std::uint64_t>(sy) * w +
                        static_cast<std::uint64_t>(x + dx0)) * s.pixel_stride;
          const std::uint64_t b =
              kKernel + (static_cast<std::uint64_t>(dy + r) *
                             static_cast<std::uint64_t>(s.kernel) +
                         static_cast<std::uint64_t>(dx0 + r)) * 4;
          const int n = dx1 - dx0 + 1;
          product.access_interleaved(a, s.pixel_stride, b, 4, n);
          for (int i = 0; i < n; ++i) {
            oracle.access(a + static_cast<std::uint64_t>(i) * s.pixel_stride);
            oracle.access(b + static_cast<std::uint64_t>(i) * 4);
          }
        }
        const std::uint64_t out =
            kOutput + (static_cast<std::uint64_t>(y) * w +
                       static_cast<std::uint64_t>(x)) * s.pixel_stride;
        ASSERT_EQ(product.access(out), oracle.access(out)) << "pixel " << p;
        ASSERT_EQ(product.stats(), oracle.stats()) << "pixel " << p;
      }
      expect_same_residency(product, oracle, 0xA000'0000ULL);
    }
  }
}

TEST(CacheOracleTest, BatchedReplaysMatchWithConflictingStreams) {
  // Random access_run / access_interleaved calls, a third of the
  // interleaved ones with both streams in one set (the "odd" L1 is direct
  // mapped, so those evict each other on every pair), strides on both
  // sides of the line size, and an occasional flush.
  constexpr std::uint64_t kStrides[] = {0, 1, 4, 12, 32, 63, 64, 100};
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(g.name);
    CacheHierarchy product{g.l1, g.l2, g.l3};
    StampedHierarchy oracle{g.l1, g.l2, g.l3};
    const std::uint64_t l1_span = g.l1.sets() * 64;  // same set, next line
    XorShift next{0x5DEECE66Dull};
    for (int call = 0; call < 3000; ++call) {
      SCOPED_TRACE(testing::Message() << "call " << call);
      const std::uint64_t a = next() % (4ull << 20);
      const std::uint64_t sa = kStrides[next() % 8];
      const std::uint64_t sb = kStrides[next() % 8];
      const auto n = static_cast<std::int64_t>(next() % 200);
      switch (next() % 4) {
        case 0:
          product.access_run(a, n, sa);
          for (std::int64_t i = 0; i < n; ++i) {
            oracle.access(a + static_cast<std::uint64_t>(i) * sa);
          }
          break;
        case 1:
        case 2: {
          const std::uint64_t b = next() % 3 == 0
                                      ? a + l1_span * (1 + next() % 4)
                                      : next() % (4ull << 20);
          product.access_interleaved(a, sa, b, sb, n);
          for (std::int64_t i = 0; i < n; ++i) {
            oracle.access(a + static_cast<std::uint64_t>(i) * sa);
            oracle.access(b + static_cast<std::uint64_t>(i) * sb);
          }
          break;
        }
        default:
          if (next() % 16 == 0) {
            product.flush();
            oracle.flush();
          }
          ASSERT_EQ(product.access(a), oracle.access(a));
          break;
      }
      ASSERT_EQ(product.stats(), oracle.stats());
    }
    expect_same_residency(product, oracle, 4ull << 20);
  }
}

}  // namespace
}  // namespace smilab
