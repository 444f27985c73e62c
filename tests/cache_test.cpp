// Tests for the set-associative cache model and the Convolve access-stream
// measurement that stands in for the paper's cachegrind step.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "smilab/apps/convolve/access_stream.h"
#include "smilab/apps/convolve/workload.h"
#include "smilab/cache/cache.h"

namespace smilab {
namespace {

TEST(SetAssocCacheTest, ColdMissThenHit) {
  SetAssocCache cache{CacheConfig{.size_bytes = 1024, .line_bytes = 64, .associativity = 2}};
  EXPECT_FALSE(cache.access(0x100));
  EXPECT_TRUE(cache.access(0x100));
  EXPECT_TRUE(cache.access(0x13F));  // same 64B line as 0x100
  EXPECT_EQ(cache.accesses(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SetAssocCacheTest, SameLineSharesEntry) {
  SetAssocCache cache{CacheConfig{.size_bytes = 1024, .line_bytes = 64, .associativity = 2}};
  EXPECT_FALSE(cache.access(0x200));
  for (int off = 1; off < 64; ++off) EXPECT_TRUE(cache.access(0x200 + static_cast<std::uint64_t>(off)));
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SetAssocCacheTest, LruEvictsOldest) {
  // 2-way, 64B lines, 256B cache -> 2 sets. Addresses 0, 256, 512 map to
  // set 0. Access 0, 256 (fills both ways), touch 0, then 512 evicts 256.
  SetAssocCache cache{CacheConfig{.size_bytes = 256, .line_bytes = 64, .associativity = 2}};
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(256));
  EXPECT_TRUE(cache.access(0));     // 0 is now MRU
  EXPECT_FALSE(cache.access(512));  // evicts 256
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(256));  // was evicted
}

TEST(SetAssocCacheTest, ConflictMissesWithLowAssociativity) {
  // Direct-mapped: two lines mapping to the same set thrash.
  SetAssocCache cache{CacheConfig{.size_bytes = 512, .line_bytes = 64, .associativity = 1}};
  const std::uint64_t a = 0;
  const std::uint64_t b = 512;  // same set (8 sets, stride 512 = 8*64)
  for (int i = 0; i < 10; ++i) {
    cache.access(a);
    cache.access(b);
  }
  EXPECT_EQ(cache.misses(), 20u);
}

TEST(SetAssocCacheTest, FlushDropsEverything) {
  SetAssocCache cache{CacheConfig{}};
  cache.access(0x40);
  cache.access(0x80);
  EXPECT_TRUE(cache.contains(0x40));
  cache.flush();
  EXPECT_FALSE(cache.contains(0x40));
  EXPECT_FALSE(cache.access(0x40));
}

TEST(SetAssocCacheTest, CapacityMissesOnBigWorkingSet) {
  // Stream 4x the cache size: second pass must still miss everywhere.
  SetAssocCache cache{CacheConfig{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8}};
  const std::uint64_t span = 128 * 1024;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < span; a += 64) cache.access(a);
  }
  EXPECT_GT(cache.miss_rate(), 0.99);
}

TEST(SetAssocCacheTest, ContainsDoesNotPerturbLruOrStats) {
  SetAssocCache cache{CacheConfig{.size_bytes = 256, .line_bytes = 64, .associativity = 2}};
  cache.access(0);
  cache.access(256);
  const auto accesses = cache.accesses();
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(cache.accesses(), accesses);
  // contains(0) must not refresh LRU: 0 is still LRU, so 512 evicts 0.
  cache.access(512);
  EXPECT_FALSE(cache.contains(0));
}

TEST(CacheConfigTest, ValidConfigHasNoError) {
  EXPECT_TRUE(CacheConfig{}.validation_error().empty());
  const CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64,
                       .associativity = 8};
  EXPECT_TRUE(l1.validation_error().empty());
}

TEST(CacheConfigTest, RejectsNonPowerOfTwoLineSize) {
  const CacheConfig bad{.size_bytes = 960, .line_bytes = 48,
                        .associativity = 2};
  const std::string error = bad.validation_error();
  EXPECT_NE(error.find("line_bytes"), std::string::npos) << error;
  EXPECT_THROW(SetAssocCache{bad}, std::invalid_argument);
}

TEST(CacheConfigTest, RejectsOneByteLines) {
  // Line ids are stored as line + 1 with 0 for an empty way; with 1-byte
  // lines the top address's id would wrap to the empty marker.
  const CacheConfig bad{.size_bytes = 1024, .line_bytes = 1,
                        .associativity = 2};
  EXPECT_NE(bad.validation_error().find("line_bytes"), std::string::npos);
  EXPECT_THROW(SetAssocCache{bad}, std::invalid_argument);
}

TEST(CacheConfigTest, RejectsSizeNotDivisibleByLineTimesAssoc) {
  // 1000 bytes is not a whole number of 2-way 64B sets.
  const CacheConfig bad{.size_bytes = 1000, .line_bytes = 64,
                        .associativity = 2};
  const std::string error = bad.validation_error();
  EXPECT_NE(error.find("multiple"), std::string::npos) << error;
  EXPECT_THROW(SetAssocCache{bad}, std::invalid_argument);
}

TEST(CacheConfigTest, RejectsNonPositiveFields) {
  const CacheConfig zero_size{.size_bytes = 0, .line_bytes = 64,
                              .associativity = 2};
  EXPECT_FALSE(zero_size.validation_error().empty());
  const CacheConfig zero_assoc{.size_bytes = 1024, .line_bytes = 64,
                               .associativity = 0};
  EXPECT_FALSE(zero_assoc.validation_error().empty());
}

TEST(CacheConfigTest, ThrowMessageNamesTheProblem) {
  const CacheConfig bad{.size_bytes = 1024, .line_bytes = 24,
                        .associativity = 2};
  try {
    SetAssocCache cache{bad};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("power of two"), std::string::npos)
        << e.what();
  }
}

TEST(CacheHierarchyTest, MissWalksDownAndInstalls) {
  CacheHierarchy h = CacheHierarchy::e5620();
  EXPECT_EQ(h.access(0x1000), CacheLevel::kMemory);
  EXPECT_EQ(h.access(0x1000), CacheLevel::kL1);
  EXPECT_EQ(h.stats().accesses, 2u);
  EXPECT_EQ(h.stats().memory_accesses, 1u);
  EXPECT_EQ(h.stats().l1_hits, 1u);
}

TEST(CacheHierarchyTest, L2HitAfterL1Eviction) {
  // Stream enough lines to spill L1 (32KB) but stay inside L2 (256KB),
  // then re-touch the first line: should hit in L2.
  CacheHierarchy h = CacheHierarchy::e5620();
  for (std::uint64_t a = 0; a < 128 * 1024; a += 64) h.access(a);
  h.reset_stats();
  EXPECT_EQ(h.access(0), CacheLevel::kL2);
}

TEST(CacheHierarchyTest, FlushForcesMemoryAccess) {
  CacheHierarchy h = CacheHierarchy::e5620();
  h.access(0x2000);
  h.flush();
  h.reset_stats();
  EXPECT_EQ(h.access(0x2000), CacheLevel::kMemory);
}

TEST(CacheHierarchyTest, AverageLatencyWeightsLevels) {
  CacheHierarchy h = CacheHierarchy::e5620();
  h.access(0x40);  // memory
  h.access(0x40);  // L1
  // avg of {180, 1} = 90.5
  EXPECT_NEAR(h.average_latency_cycles(1, 10, 40, 180), 90.5, 1e-9);
  EXPECT_EQ(HierarchyStats{}.average_latency_cycles(1, 10, 40, 180), 1.0);
}

TEST(CacheHierarchyTest, AccessRunMatchesScalarLoop) {
  CacheHierarchy batched = CacheHierarchy::e5620();
  CacheHierarchy scalar = CacheHierarchy::e5620();
  // A few shapes: unit stride, sub-line stride, line-crossing stride, and a
  // run that starts mid-line.
  const struct { std::uint64_t base; std::int64_t count; std::int64_t stride; }
      shapes[] = {{0, 5000, 4}, {0x1234, 3000, 8}, {0x40000, 1000, 64},
                  {0x7Ff8, 2000, 12}, {0x90000, 1, 4}, {0xA0000, 0, 4}};
  for (const auto& s : shapes) {
    batched.access_run(s.base, s.count, s.stride);
    for (std::int64_t i = 0; i < s.count; ++i) {
      scalar.access(s.base + static_cast<std::uint64_t>(i * s.stride));
    }
    EXPECT_EQ(batched.stats(), scalar.stats());
  }
}

TEST(CacheHierarchyTest, AccessInterleavedMatchesScalarPairs) {
  CacheHierarchy batched = CacheHierarchy::e5620();
  CacheHierarchy scalar = CacheHierarchy::e5620();
  // Convolve-shaped: image stream at one stride, kernel stream at another,
  // including a conflicting pair (same set, forcing the scalar fallback).
  const struct {
    std::uint64_t a; std::int64_t sa; std::uint64_t b; std::int64_t sb;
    std::int64_t pairs;
  } shapes[] = {{0x100000, 4, 0x500000, 4, 4000},
                {0x0, 16, 0x8000, 4, 2000},
                {0x200000, 4, 0x200040, 4, 100},
                {0x300000, 64, 0x600000, 64, 500}};
  for (const auto& s : shapes) {
    batched.access_interleaved(s.a, s.sa, s.b, s.sb, s.pairs);
    for (std::int64_t i = 0; i < s.pairs; ++i) {
      scalar.access(s.a + static_cast<std::uint64_t>(i * s.sa));
      scalar.access(s.b + static_cast<std::uint64_t>(i * s.sb));
    }
    EXPECT_EQ(batched.stats(), scalar.stats());
  }
}

// Golden pins captured from the seed build (scalar engine, no fast path):
// the hot-path rework must keep the measurement bit-identical, because the
// Figure-1 calibration (cycles/ref) feeds every Convolve simulation.
TEST(ConvolveCacheMeasurementTest, GoldenPinCacheFriendly) {
  const CacheMeasurement m = measure_convolve_cache(
      ConvolveConfig::cache_friendly(), CacheHierarchy::e5620(), 2'000'000);
  EXPECT_EQ(m.stats.accesses, 2'003'900u);
  EXPECT_EQ(m.stats.l1_hits, 2'003'349u);
  EXPECT_EQ(m.stats.l2_hits, 0u);
  EXPECT_EQ(m.stats.l3_hits, 0u);
  EXPECT_EQ(m.stats.memory_accesses, 551u);
  EXPECT_EQ(m.l1_miss_rate, 0.00027496382054992762);
  EXPECT_EQ(m.avg_latency_cycles, 1.0492185238784371);
}

TEST(ConvolveCacheMeasurementTest, GoldenPinCacheUnfriendly) {
  const CacheMeasurement m = measure_convolve_cache(
      ConvolveConfig::cache_unfriendly(), CacheHierarchy::e5620(), 2'000'000);
  EXPECT_EQ(m.stats.accesses, 2'000'016u);
  EXPECT_EQ(m.stats.l1_hits, 947'763u);
  EXPECT_EQ(m.stats.l2_hits, 2'813u);
  EXPECT_EQ(m.stats.l3_hits, 130'201u);
  EXPECT_EQ(m.stats.memory_accesses, 919'239u);
  EXPECT_EQ(m.l1_miss_rate, 0.52612229102167185);
  EXPECT_EQ(m.avg_latency_cycles, 85.822789917680652);
}

// The production-size replays are the oracle for the paper workloads, which
// serve pinned copies of them (apps/convolve/workload.cpp) instead of
// replaying 20M references in every process. Each case replays its
// workload's configuration and requires the workload's measurement: all
// five counts and both doubles, exactly.
void expect_pinned_measurement_replays(const ConvolveWorkload& workload) {
  const CacheMeasurement& pinned = workload.cache;
  const CacheMeasurement m =
      measure_convolve_cache(workload.config, CacheHierarchy::e5620());
  EXPECT_EQ(m.stats.accesses, pinned.stats.accesses);
  EXPECT_EQ(m.stats.l1_hits, pinned.stats.l1_hits);
  EXPECT_EQ(m.stats.l2_hits, pinned.stats.l2_hits);
  EXPECT_EQ(m.stats.l3_hits, pinned.stats.l3_hits);
  EXPECT_EQ(m.stats.memory_accesses, pinned.stats.memory_accesses);
  EXPECT_EQ(m.l1_miss_rate, pinned.l1_miss_rate);
  EXPECT_EQ(m.avg_latency_cycles, pinned.avg_latency_cycles);
}

TEST(ConvolveCacheMeasurementTest, GoldenPinCacheFriendlyDefaultRefs) {
  expect_pinned_measurement_replays(ConvolveWorkload::cache_friendly_workload());
}

TEST(ConvolveCacheMeasurementTest, GoldenPinCacheUnfriendlyDefaultRefs) {
  expect_pinned_measurement_replays(
      ConvolveWorkload::cache_unfriendly_workload());
}

TEST(ConvolveCacheMeasurementTest, CacheFriendlyIsLowMiss) {
  const CacheMeasurement m = measure_convolve_cache(
      ConvolveConfig::cache_friendly(), CacheHierarchy::e5620(), 5'000'000);
  EXPECT_LT(m.l1_miss_rate, 0.05);
  EXPECT_GT(m.stats.accesses, 4'000'000u);
}

TEST(ConvolveCacheMeasurementTest, CacheUnfriendlyIsHighMiss) {
  const CacheMeasurement m = measure_convolve_cache(
      ConvolveConfig::cache_unfriendly(), CacheHierarchy::e5620(), 5'000'000);
  EXPECT_GT(m.l1_miss_rate, 0.40);
}

TEST(ConvolveCacheMeasurementTest, ContrastMatchesPaperSelection) {
  // The paper's pair: ~1% vs ~70% misses. We require a >=15x contrast and
  // correspondingly separated per-reference latency.
  const CacheMeasurement cf = measure_convolve_cache(
      ConvolveConfig::cache_friendly(), CacheHierarchy::e5620(), 2'000'000);
  const CacheMeasurement cu = measure_convolve_cache(
      ConvolveConfig::cache_unfriendly(), CacheHierarchy::e5620(), 2'000'000);
  EXPECT_GT(cu.l1_miss_rate / cf.l1_miss_rate, 15.0);
  EXPECT_GT(cu.avg_latency_cycles, 3.0 * cf.avg_latency_cycles);
}

TEST(ConvolveCacheMeasurementTest, RefCountsMatchFormula) {
  ConvolveConfig cfg = ConvolveConfig::cache_friendly();
  EXPECT_EQ(cfg.refs_per_output_pixel(), 2 * 61 * 61 + 1);
  cfg = ConvolveConfig::cache_unfriendly();
  EXPECT_EQ(cfg.refs_per_output_pixel(), 19);
  EXPECT_EQ(cfg.output_pixels(), 16'000'000);
}

TEST(ConvolveCacheMeasurementTest, DeterministicReplay) {
  const CacheMeasurement a = measure_convolve_cache(
      ConvolveConfig::cache_unfriendly(), CacheHierarchy::e5620(), 1'000'000);
  const CacheMeasurement b = measure_convolve_cache(
      ConvolveConfig::cache_unfriendly(), CacheHierarchy::e5620(), 1'000'000);
  EXPECT_EQ(a.stats.l1_hits, b.stats.l1_hits);
  EXPECT_EQ(a.stats.memory_accesses, b.stats.memory_accesses);
}

}  // namespace
}  // namespace smilab
