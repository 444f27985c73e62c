// Set-associative cache hierarchy simulator (cachegrind-style).
//
// The paper selected its CacheFriendly (~1% miss) and CacheUnfriendly
// (~70% miss) Convolve configurations with cachegrind; we reproduce that
// selection by running the actual Convolve access pattern through this
// model (see apps/convolve). The same model also sizes the post-SMM refill
// penalty inputs.
//
// Hot-path design (DESIGN.md §8): each set stores its resident line ids in
// recency order, so true LRU needs no stamps, and the hierarchy exposes
// batched replay entry points (access_run / access_interleaved) that
// collapse whole same-line runs into counter updates. Both are
// bit-identical to a stamped true-LRU model fed one access() per
// reference; tests/cache_oracle_test.cpp keeps that model as the oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace smilab {

struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;
  int line_bytes = 64;
  int associativity = 8;

  /// Empty if the geometry is consistent; otherwise a message naming the
  /// offending field. A size not divisible by line*associativity used to
  /// silently truncate in sets(); now it is a construction error.
  [[nodiscard]] std::string validation_error() const;

  [[nodiscard]] std::size_t sets() const {
    return size_bytes / (static_cast<std::size_t>(line_bytes) *
                         static_cast<std::size_t>(associativity));
  }
};

/// One level: physically indexed, true-LRU, write-allocate. We only track
/// hit/miss (no dirty writeback modelling: the study needs miss *rates*).
class SetAssocCache {
 public:
  /// Throws std::invalid_argument (CacheConfig::validation_error) on an
  /// inconsistent geometry.
  explicit SetAssocCache(CacheConfig config);

  /// Access one byte address; returns true on hit. A miss installs the line
  /// (the caller decides whether to probe the next level first).
  bool access(std::uint64_t addr);

  /// Probe without installing or updating LRU (diagnostics).
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  /// Drop every line (what SMM entry/exit effectively does to hot state).
  void flush();

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double miss_rate() const {
    return accesses_ ? static_cast<double>(misses_) / static_cast<double>(accesses_)
                     : 0.0;
  }
  void reset_stats() {
    accesses_ = 0;
    misses_ = 0;
  }

 private:
  friend class CacheHierarchy;

  /// Index in lines_ of the first way of the set `line` maps to.
  [[nodiscard]] std::size_t set_base(std::uint64_t line) const {
    const std::uint64_t set = pow2_sets_ ? (line & set_mask_) : (line % set_count_);
    return static_cast<std::size_t>(set) * assoc_;
  }

  /// Count `n` further hits that leave every set's recency order as it is
  /// (repeats of the most recent references). The caller (CacheHierarchy
  /// batching) guarantees the lines are resident.
  void count_hits(std::uint64_t n) { accesses_ += n; }

  CacheConfig config_;
  std::size_t set_count_ = 0;
  std::uint64_t set_mask_ = 0;  // set_count_ - 1; used when pow2_sets_
  bool pow2_sets_ = false;
  int line_shift_ = 0;
  std::size_t assoc_ = 0;
  // Set-major, assoc_ entries per set: resident line ids as `line + 1`
  // (0 = empty), most recent first, empty ways trailing. The last entry is
  // the LRU victim, or an empty way while the set is not yet full.
  std::vector<std::uint64_t> lines_;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

/// Per-level hit statistics for a full hierarchy walk.
enum class CacheLevel { kL1 = 1, kL2 = 2, kL3 = 3, kMemory = 4 };

struct HierarchyStats {
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t memory_accesses = 0;

  bool operator==(const HierarchyStats&) const = default;

  /// cachegrind-style overall miss rate: fraction of references that left
  /// the L1 (what the paper's ~1% / ~70% numbers describe).
  [[nodiscard]] double l1_miss_rate() const {
    return accesses ? static_cast<double>(accesses - l1_hits) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
  [[nodiscard]] double memory_miss_rate() const {
    return accesses ? static_cast<double>(memory_accesses) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
  [[nodiscard]] std::string summary() const;
};

/// Three-level inclusive-enough hierarchy: misses walk down and install at
/// every level on the way back up.
class CacheHierarchy {
 public:
  CacheHierarchy(CacheConfig l1, CacheConfig l2, CacheConfig l3);

  /// The multithreaded-study machine (Westmere E5620): 32 KB L1d, 256 KB
  /// L2 per core, 12 MB shared L3.
  static CacheHierarchy e5620();

  /// Access one address; returns the level that satisfied it.
  CacheLevel access(std::uint64_t addr);

  /// Replay `count` accesses starting at `addr`, advancing by `stride`
  /// bytes each time. Equivalent to count access() calls; same-line runs
  /// (stride < L1 line size) collapse into one walk plus counter updates.
  void access_run(std::uint64_t addr, std::int64_t count, std::uint64_t stride);

  /// Replay `pairs` interleaved accesses a0,b0,a1,b1,... with each stream
  /// advancing by its stride. Equivalent to the scalar interleaving; this
  /// is the shape of the Convolve inner loop (image row and kernel row in
  /// lockstep), where both streams stay within their lines for many pairs.
  void access_interleaved(std::uint64_t a, std::uint64_t stride_a,
                          std::uint64_t b, std::uint64_t stride_b,
                          std::int64_t pairs);

  /// Flush all levels (SMM entry/exit effect).
  void flush();

  [[nodiscard]] const HierarchyStats& stats() const { return stats_; }
  void reset_stats() { stats_ = HierarchyStats{}; }

  /// Average access latency in cycles given per-level costs; used to turn
  /// measured miss behaviour into per-reference work for the simulator.
  [[nodiscard]] double average_latency_cycles(double l1_cy, double l2_cy,
                                              double l3_cy, double mem_cy) const;

 private:
  SetAssocCache l1_;
  SetAssocCache l2_;
  SetAssocCache l3_;
  HierarchyStats stats_;
};

}  // namespace smilab
