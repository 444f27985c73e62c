// Cache-behaviour measurement for Convolve configurations (the paper's
// cachegrind step, Section IV.B).
//
// The paper selected two configurations "experimentally using cachegrind":
// one with ~1% misses (CacheFriendly) and one with ~70% misses
// (CacheUnfriendly), both over ~20M references. We reproduce the selection
// by replaying the convolution's exact data-reference stream through the
// cache hierarchy model. The memory layout and block traversal order are
// part of the configuration: high miss rates require defeating spatial
// locality (padded pixel records + scattered tile order), which is how
// image-processing pipelines with per-pixel records behave.
#pragma once

#include <cstdint>

#include "smilab/apps/convolve/convolve.h"
#include "smilab/cache/cache.h"

namespace smilab {

/// How pixels are laid out in memory for the access-stream replay.
enum class PixelLayout {
  kPackedFloat,   ///< 4-byte floats, row-major (dense array)
  kPaddedRecord,  ///< 64-byte per-pixel records (struct-of-everything style)
};

/// Order in which a worker visits its output tiles/pixels.
enum class Traversal {
  kRowMajor,
  kColumnMajor,
  kScatteredTiles,   ///< pseudo-random tile order (work-queue self-scheduling)
  kScatteredPixels,  ///< pseudo-random pixel order inside each tile: no
                     ///< window reuse between consecutive outputs at all
};

struct ConvolveConfig {
  int image_w = 0;
  int image_h = 0;
  int block_w = 0;
  int block_h = 0;
  int kernel_size = 0;
  PixelLayout layout = PixelLayout::kPackedFloat;
  Traversal traversal = Traversal::kRowMajor;

  /// Paper CF row: 0.5 megapixel image, 4x4 subimages, 61x61 kernel.
  static ConvolveConfig cache_friendly();
  /// Paper CU row: 16 megapixel image, 1 megapixel subimages, 3x3 kernel.
  static ConvolveConfig cache_unfriendly();

  /// Data references per output pixel: 2 loads per MAC plus one store.
  [[nodiscard]] std::int64_t refs_per_output_pixel() const {
    return 2LL * kernel_size * kernel_size + 1;
  }
  [[nodiscard]] std::int64_t output_pixels() const {
    return static_cast<std::int64_t>(image_w) * image_h;
  }
  [[nodiscard]] std::int64_t total_refs() const {
    return output_pixels() * refs_per_output_pixel();
  }
};

struct CacheMeasurement {
  HierarchyStats stats;
  double l1_miss_rate = 0.0;
  double avg_latency_cycles = 0.0;  ///< per data reference

  /// The miss rate and the per-reference latency, with Westmere-class level
  /// costs, of `stats`. Every measurement is derived here, so a pinned copy
  /// of a replay's counts gives the replay's doubles bit for bit.
  static CacheMeasurement from_stats(const HierarchyStats& stats);
};

/// Replay the convolution access stream (up to `max_refs` references) of
/// `config` through `hierarchy` and measure it (CacheMeasurement::from_stats
/// of the hierarchy's counts). The paper workloads do not call this: they
/// read its pinned 20M-reference results (apps/convolve/workload.cpp), and
/// the ConvolveCacheMeasurementTest oracle replays them.
CacheMeasurement measure_convolve_cache(const ConvolveConfig& config,
                                        CacheHierarchy hierarchy,
                                        std::int64_t max_refs = 20'000'000);

}  // namespace smilab
