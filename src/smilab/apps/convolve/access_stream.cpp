#include "smilab/apps/convolve/access_stream.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

#include "smilab/time/rng.h"

namespace smilab {

ConvolveConfig ConvolveConfig::cache_friendly() {
  // 0.5 MP image (707x707), 4x4 subimages, 61x61 Gaussian kernel, dense
  // floats: the kernel (~15 KB) plus the sliding image window fit in L1/L2.
  ConvolveConfig cfg;
  cfg.image_w = 707;
  cfg.image_h = 707;
  cfg.block_w = 4;
  cfg.block_h = 4;
  cfg.kernel_size = 61;
  cfg.layout = PixelLayout::kPackedFloat;
  cfg.traversal = Traversal::kRowMajor;
  return cfg;
}

ConvolveConfig ConvolveConfig::cache_unfriendly() {
  // 16 MP image (4000x4000), 1 MP subimages, 3x3 kernel, padded per-pixel
  // records visited in scattered pixel order (fine-grained self-scheduled
  // work queue): consecutive outputs share no cached window, so nearly
  // every image reference and store touches a fresh line and the working
  // set dwarfs every cache level. See EXPERIMENTS.md for how the measured
  // miss rate compares with the paper's cachegrind figure.
  ConvolveConfig cfg;
  cfg.image_w = 4000;
  cfg.image_h = 4000;
  cfg.block_w = 1000;
  cfg.block_h = 1000;
  cfg.kernel_size = 3;
  cfg.layout = PixelLayout::kPaddedRecord;
  cfg.traversal = Traversal::kScatteredPixels;
  return cfg;
}

CacheMeasurement CacheMeasurement::from_stats(const HierarchyStats& stats) {
  CacheMeasurement result;
  result.stats = stats;
  result.l1_miss_rate = stats.l1_miss_rate();
  // Effective per-reference costs (cycles): L1 1, L2 10, L3 40, memory
  // 180. Westmere-class load-to-use latencies are about 4, 10, 40 and 180;
  // the convolve MACs overlap some of that, an L1 hit's most of all.
  result.avg_latency_cycles =
      stats.average_latency_cycles(1.0, 10.0, 40.0, 180.0);
  return result;
}

namespace {

constexpr std::uint64_t kImageBase = 0x1000'0000ULL;
constexpr std::uint64_t kKernelBase = 0x7000'0000ULL;
constexpr std::uint64_t kOutputBase = 0x9000'0000ULL;

struct AddressModel {
  const ConvolveConfig& cfg;
  std::uint64_t pixel_stride;

  explicit AddressModel(const ConvolveConfig& config)
      : cfg(config),
        pixel_stride(config.layout == PixelLayout::kPackedFloat ? 4 : 64) {}

  [[nodiscard]] std::uint64_t image(int x, int y) const {
    return kImageBase +
           (static_cast<std::uint64_t>(y) * static_cast<std::uint64_t>(cfg.image_w) +
            static_cast<std::uint64_t>(x)) * pixel_stride;
  }
  [[nodiscard]] std::uint64_t kernel(int i, int j) const {
    return kKernelBase +
           (static_cast<std::uint64_t>(j) * static_cast<std::uint64_t>(cfg.kernel_size) +
            static_cast<std::uint64_t>(i)) * 4;  // kernel is always dense
  }
  [[nodiscard]] std::uint64_t output(int x, int y) const {
    return kOutputBase +
           (static_cast<std::uint64_t>(y) * static_cast<std::uint64_t>(cfg.image_w) +
            static_cast<std::uint64_t>(x)) * pixel_stride;
  }
};

}  // namespace

CacheMeasurement measure_convolve_cache(const ConvolveConfig& config,
                                        CacheHierarchy hierarchy,
                                        std::int64_t max_refs) {
  assert(config.kernel_size % 2 == 1);
  const AddressModel addr{config};
  const int r = config.kernel_size / 2;

  std::vector<Block> blocks =
      decompose_blocks(config.image_w, config.image_h, config.block_w,
                       config.block_h);
  if (config.traversal == Traversal::kScatteredTiles ||
      config.traversal == Traversal::kScatteredPixels) {
    // Deterministic Fisher-Yates shuffle: models dynamic self-scheduling,
    // where successive tiles a worker grabs are far apart in the image.
    Rng rng{0xC0FFEE};
    for (std::size_t i = blocks.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(blocks[i - 1], blocks[j]);
    }
  }

  std::int64_t refs = 0;
  hierarchy.reset_stats();
  auto visit_pixel = [&](int x, int y) {
    for (int dy = -r; dy <= r; ++dy) {
      const int sy = y + dy;
      if (sy < 0 || sy >= config.image_h) continue;
      // The dx loop alternates one image load and one kernel load, both
      // streams contiguous; lower the whole (clipped) row to the batched
      // interleaved replay — bit-identical to the scalar loop, but
      // same-line stretches collapse to counter updates.
      const int dx0 = std::max(-r, -x);
      const int dx1 = std::min(r, config.image_w - 1 - x);
      if (dx0 > dx1) continue;
      const int n = dx1 - dx0 + 1;
      hierarchy.access_interleaved(addr.image(x + dx0, sy), addr.pixel_stride,
                                   addr.kernel(dx0 + r, dy + r), 4, n);
      refs += 2 * n;
    }
    hierarchy.access(addr.output(x, y));
    refs += 1;
  };

  for (const Block& b : blocks) {
    if (refs >= max_refs) break;
    const std::int64_t pixels =
        static_cast<std::int64_t>(b.w) * static_cast<std::int64_t>(b.h);
    if (config.traversal == Traversal::kScatteredPixels) {
      // Visit the tile's pixels in a deterministic uniform-random order —
      // the access pattern of a fine-grained self-scheduled work queue,
      // where successive outputs a worker grabs share no cached window.
      // 32-bit indices halve the order's footprint (4 MB for a 1 MP tile).
      assert(pixels <= std::int64_t{UINT32_MAX});
      std::vector<std::uint32_t> order(static_cast<std::size_t>(pixels));
      std::iota(order.begin(), order.end(), std::uint32_t{0});
      // 32-bit modular spatial hash, sign-extended; int arithmetic here
      // overflows for large tiles.
      const std::uint32_t tile_hash =
          static_cast<std::uint32_t>(b.x0) * 73856093u +
          static_cast<std::uint32_t>(b.y0);
      Rng rng{0xBADCACE ^ static_cast<std::uint64_t>(
                              static_cast<std::int32_t>(tile_hash))};
      for (std::size_t i = order.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(order[i - 1], order[j]);
      }
      for (std::int64_t i = 0; i < pixels && refs < max_refs; ++i) {
        const std::uint32_t idx = order[static_cast<std::size_t>(i)];
        const auto w = static_cast<std::uint32_t>(b.w);
        visit_pixel(b.x0 + static_cast<int>(idx % w),
                    b.y0 + static_cast<int>(idx / w));
      }
      continue;
    }
    // Row/column-major sweeps; scattered *tiles* use column-major inside.
    const bool column_major = config.traversal != Traversal::kRowMajor;
    const int outer_n = column_major ? b.w : b.h;
    const int inner_n = column_major ? b.h : b.w;
    for (int o = 0; o < outer_n && refs < max_refs; ++o) {
      for (int i = 0; i < inner_n && refs < max_refs; ++i) {
        visit_pixel(b.x0 + (column_major ? o : i),
                    b.y0 + (column_major ? i : o));
      }
    }
  }

  return CacheMeasurement::from_stats(hierarchy.stats());
}

}  // namespace smilab
