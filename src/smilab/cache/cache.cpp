#include "smilab/cache/cache.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace smilab {

std::string CacheConfig::validation_error() const {
  char buf[160];
  // At least 2 bytes, so a stored line id (line + 1) never wraps to the
  // empty marker.
  if (line_bytes < 2 || (line_bytes & (line_bytes - 1)) != 0) {
    std::snprintf(buf, sizeof buf,
                  "CacheConfig: line_bytes must be a power of two >= 2, got %d",
                  line_bytes);
    return buf;
  }
  if (associativity <= 0) {
    std::snprintf(buf, sizeof buf,
                  "CacheConfig: associativity must be positive, got %d",
                  associativity);
    return buf;
  }
  const std::size_t way_bytes = static_cast<std::size_t>(line_bytes) *
                                static_cast<std::size_t>(associativity);
  if (size_bytes == 0 || size_bytes % way_bytes != 0) {
    std::snprintf(buf, sizeof buf,
                  "CacheConfig: size_bytes (%zu) must be a positive multiple of "
                  "line_bytes*associativity (%zu)",
                  size_bytes, way_bytes);
    return buf;
  }
  return {};
}

namespace {

int log2_exact(int v) {
  int shift = 0;
  while ((1 << shift) < v) ++shift;
  return shift;
}

}  // namespace

SetAssocCache::SetAssocCache(CacheConfig config) : config_(config) {
  if (const std::string error = config.validation_error(); !error.empty()) {
    throw std::invalid_argument(error);
  }
  set_count_ = config.sets();
  set_mask_ = set_count_ - 1;
  pow2_sets_ = (set_count_ & set_mask_) == 0;
  line_shift_ = log2_exact(config.line_bytes);
  assoc_ = static_cast<std::size_t>(config.associativity);
  lines_.assign(set_count_ * assoc_, 0);
}

bool SetAssocCache::access(std::uint64_t addr) {
  ++accesses_;
  const std::uint64_t line = addr >> line_shift_;
  const std::uint64_t id = line + 1;
  std::uint64_t* set = &lines_[set_base(line)];
  if (set[0] == id) return true;  // already most recent: order unchanged
  std::size_t w = 1;
  while (w < assoc_ && set[w] != id) ++w;
  const bool hit = w < assoc_;
  if (!hit) {
    // Evict the last way: the LRU line, or an empty way if any remain.
    ++misses_;
    w = assoc_ - 1;
  }
  for (; w > 0; --w) set[w] = set[w - 1];
  set[0] = id;
  return hit;
}

bool SetAssocCache::contains(std::uint64_t addr) const {
  const std::uint64_t line = addr >> line_shift_;
  const std::uint64_t* set = &lines_[set_base(line)];
  return std::find(set, set + assoc_, line + 1) != set + assoc_;
}

void SetAssocCache::flush() { std::fill(lines_.begin(), lines_.end(), 0); }

std::string HierarchyStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "refs=%llu L1=%.2f%% L2=%.2f%% L3=%.2f%% mem=%.2f%% "
                "(L1 miss rate %.2f%%)",
                static_cast<unsigned long long>(accesses),
                100.0 * static_cast<double>(l1_hits) / static_cast<double>(accesses ? accesses : 1),
                100.0 * static_cast<double>(l2_hits) / static_cast<double>(accesses ? accesses : 1),
                100.0 * static_cast<double>(l3_hits) / static_cast<double>(accesses ? accesses : 1),
                100.0 * static_cast<double>(memory_accesses) / static_cast<double>(accesses ? accesses : 1),
                100.0 * l1_miss_rate());
  return buf;
}

CacheHierarchy::CacheHierarchy(CacheConfig l1, CacheConfig l2, CacheConfig l3)
    : l1_(l1), l2_(l2), l3_(l3) {}

CacheHierarchy CacheHierarchy::e5620() {
  return CacheHierarchy{
      CacheConfig{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8},
      CacheConfig{.size_bytes = 256 * 1024, .line_bytes = 64, .associativity = 8},
      CacheConfig{.size_bytes = 12 * 1024 * 1024, .line_bytes = 64, .associativity = 16}};
}

CacheLevel CacheHierarchy::access(std::uint64_t addr) {
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

void CacheHierarchy::access_run(std::uint64_t addr, std::int64_t count,
                                std::uint64_t stride) {
  const auto line_bytes =
      static_cast<std::uint64_t>(l1_.config().line_bytes);
  if (stride == 0 || stride >= line_bytes) {
    for (std::int64_t i = 0; i < count; ++i, addr += stride) access(addr);
    return;
  }
  std::int64_t i = 0;
  while (i < count) {
    access(addr);  // full walk: installs the line at every level if needed
    // Accesses i+1..i+k stay on this L1 line, now the most recent in its
    // set: guaranteed L1 hits that leave the order unchanged.
    const std::uint64_t to_boundary = line_bytes - (addr & (line_bytes - 1));
    std::uint64_t k = (to_boundary - 1) / stride;
    k = std::min<std::uint64_t>(k, static_cast<std::uint64_t>(count - i - 1));
    if (k > 0) {
      l1_.count_hits(k);
      stats_.accesses += k;
      stats_.l1_hits += k;
    }
    i += static_cast<std::int64_t>(1 + k);
    addr += (1 + k) * stride;
  }
}

void CacheHierarchy::access_interleaved(std::uint64_t a, std::uint64_t stride_a,
                                        std::uint64_t b, std::uint64_t stride_b,
                                        std::int64_t pairs) {
  const auto line_bytes =
      static_cast<std::uint64_t>(l1_.config().line_bytes);
  const bool batchable = stride_a > 0 && stride_a < line_bytes &&
                         stride_b > 0 && stride_b < line_bytes;
  std::int64_t i = 0;
  while (i < pairs) {
    access(a);
    access(b);
    ++i;
    if (!batchable) {
      a += stride_a;
      b += stride_b;
      continue;
    }
    // Pairs i..i+k-1 keep both streams on their current lines. b is the
    // most recent line of its set and a, if still resident, the most recent
    // of the others, so repeating the pair hits twice and leaves the order
    // as it is. a is gone only when b's install evicted it (a direct-mapped
    // conflict); then this stretch replays pair by pair.
    const std::uint64_t ka = (line_bytes - (a & (line_bytes - 1)) - 1) / stride_a;
    const std::uint64_t kb = (line_bytes - (b & (line_bytes - 1)) - 1) / stride_b;
    std::uint64_t k = std::min(ka, kb);
    k = std::min<std::uint64_t>(k, static_cast<std::uint64_t>(pairs - i));
    a += stride_a;
    b += stride_b;
    if (k == 0 || !l1_.contains(a)) continue;
    l1_.count_hits(2 * k);
    stats_.accesses += 2 * k;
    stats_.l1_hits += 2 * k;
    i += static_cast<std::int64_t>(k);
    a += k * stride_a;
    b += k * stride_b;
  }
}

void CacheHierarchy::flush() {
  l1_.flush();
  l2_.flush();
  l3_.flush();
}

double CacheHierarchy::average_latency_cycles(double l1_cy, double l2_cy,
                                              double l3_cy, double mem_cy) const {
  if (stats_.accesses == 0) return l1_cy;
  const auto n = static_cast<double>(stats_.accesses);
  return (static_cast<double>(stats_.l1_hits) * l1_cy +
          static_cast<double>(stats_.l2_hits) * l2_cy +
          static_cast<double>(stats_.l3_hits) * l3_cy +
          static_cast<double>(stats_.memory_accesses) * mem_cy) /
         n;
}

}  // namespace smilab
