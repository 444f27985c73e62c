#include "smilab/apps/nas/nas.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "smilab/mpi/collectives.h"

namespace smilab {

const char* to_string(NasBenchmark bench) {
  switch (bench) {
    case NasBenchmark::kEP:
      return "EP";
    case NasBenchmark::kBT:
      return "BT";
    case NasBenchmark::kFT:
      return "FT";
  }
  return "?";
}

const char* to_string(NasClass cls) {
  switch (cls) {
    case NasClass::kA:
      return "A";
    case NasClass::kB:
      return "B";
    case NasClass::kC:
      return "C";
  }
  return "?";
}

namespace {
constexpr int class_index(NasClass cls) { return static_cast<int>(cls); }
}  // namespace

double nas_serial_work_seconds(NasBenchmark bench, NasClass cls) {
  // Single-rank SMM-0 baselines from Tables 1-3 (pure compute: one rank has
  // no inter-rank communication). FT class C was not measured at one rank;
  // extrapolated from class B by the grid-point ratio (4x points, ~4.05x
  // work including the log-factor of the FFT).
  static constexpr double kEp[3] = {23.12, 92.72, 370.67};
  static constexpr double kBt[3] = {86.87, 369.70, 1585.75};
  static constexpr double kFt[3] = {7.64, 95.48, 386.0};
  switch (bench) {
    case NasBenchmark::kEP:
      return kEp[class_index(cls)];
    case NasBenchmark::kBT:
      return kBt[class_index(cls)];
    case NasBenchmark::kFT:
      return kFt[class_index(cls)];
  }
  return 0.0;
}

int nas_iterations(NasBenchmark bench, NasClass cls) {
  switch (bench) {
    case NasBenchmark::kEP:
      return 1;  // one embarrassingly-parallel phase
    case NasBenchmark::kBT:
      return 200;  // NPB reference niter for A/B/C
    case NasBenchmark::kFT:
      return cls == NasClass::kA ? 6 : 20;  // NPB: A=6, B=20, C=20
  }
  return 1;
}

std::int64_t nas_grid_points(NasBenchmark bench, NasClass cls) {
  switch (bench) {
    case NasBenchmark::kEP: {
      // EP "grid" = number of random pairs: 2^28 / 2^30 / 2^32.
      static constexpr std::int64_t kPairs[3] = {1LL << 28, 1LL << 30, 1LL << 32};
      return kPairs[class_index(cls)];
    }
    case NasBenchmark::kBT: {
      static constexpr std::int64_t kSide[3] = {64, 102, 162};
      const std::int64_t n = kSide[class_index(cls)];
      return n * n * n;
    }
    case NasBenchmark::kFT: {
      static constexpr std::int64_t kPoints[3] = {
          256LL * 256 * 128, 512LL * 256 * 256, 512LL * 512 * 512};
      return kPoints[class_index(cls)];
    }
  }
  return 0;
}

double nas_work_units(NasBenchmark bench, NasClass cls) {
  const auto points = static_cast<double>(nas_grid_points(bench, cls));
  return points * nas_iterations(bench, cls);
}

const char* nas_work_unit_name(NasBenchmark bench) {
  return bench == NasBenchmark::kEP ? "pairs" : "cell updates";
}

double nas_bytes_per_rank(NasBenchmark bench, NasClass cls, int ranks) {
  assert(ranks >= 1);
  const auto points = static_cast<double>(nas_grid_points(bench, cls));
  switch (bench) {
    case NasBenchmark::kEP:
      // EP keeps only small per-rank tallies regardless of class.
      return 64.0 * 1024.0 * 1024.0;
    case NasBenchmark::kBT:
      // 5 solution variables + 5x5 block Jacobians, doubles.
      return points * (5.0 + 15.0) * 8.0 / ranks;
    case NasBenchmark::kFT:
      // u0/u1/u2 complex doubles + real twiddle factors (NPB does the
      // transpose through these arrays; MPI-internal staging is small).
      return points * (3.0 * 16.0 + 8.0) / ranks;
  }
  return 0.0;
}

bool nas_fits_memory(const NasJobSpec& spec, double node_ram_gb) {
  const double usable = node_ram_gb * 0.85 * 1e9;  // OS + filesystem residue
  const double per_node = nas_bytes_per_rank(spec.bench, spec.cls, spec.ranks()) *
                          spec.ranks_per_node;
  return per_node <= usable;
}

bool nas_paper_reports(const NasJobSpec& spec) {
  if (spec.bench == NasBenchmark::kFT && spec.cls == NasClass::kC &&
      spec.ranks_per_node == 1 && spec.nodes <= 2) {
    return false;  // the "-" cells of Table 3
  }
  return true;
}

bool nas_valid_rank_count(NasBenchmark bench, int ranks) {
  if (ranks < 1) return false;
  switch (bench) {
    case NasBenchmark::kEP:
      return true;
    case NasBenchmark::kBT: {
      const int q = static_cast<int>(std::lround(std::sqrt(ranks)));
      return q * q == ranks;
    }
    case NasBenchmark::kFT:
      return is_power_of_two(ranks);
  }
  return false;
}

namespace {

/// One paper table half: [class][node-row] -> {smm0, smm1, smm2}; a
/// negative smm0 marks an unreported cell. Node rows: EP/FT {1,2,4,8,16};
/// BT {1,4,16}.
using PaperHalf3 = double[3][3][3];
using PaperHalf5 = double[3][5][3];

// Table 2: EP, 1 rank per node and 4 ranks per node.
constexpr PaperHalf5 kEp1 = {
    {{23.12, 23.18, 25.66}, {11.69, 11.60, 13.15}, {5.84, 5.80, 6.77},
     {2.92, 2.94, 3.50}, {1.46, 1.47, 2.04}},
    {{92.72, 93.17, 102.50}, {46.35, 46.59, 52.58}, {23.33, 23.28, 26.71},
     {11.67, 11.74, 13.51}, {5.86, 5.90, 7.03}},
    {{370.67, 372.53, 411.19}, {185.10, 185.87, 210.03}, {93.36, 93.34, 106.47},
     {46.90, 47.09, 53.59}, {24.94, 25.16, 28.49}}};
constexpr PaperHalf5 kEp4 = {
    {{5.87, 5.87, 6.47}, {2.93, 2.93, 3.35}, {1.47, 1.47, 1.75},
     {0.73, 0.74, 0.95}, {0.37, 0.42, 0.65}},
    {{23.49, 23.42, 25.97}, {11.71, 11.66, 13.27}, {5.90, 5.93, 6.77},
     {2.96, 2.95, 3.58}, {1.59, 1.49, 2.06}},
    {{93.86, 93.33, 104.00}, {46.96, 46.85, 53.01}, {23.47, 23.48, 28.32},
     {11.78, 12.61, 13.66}, {5.91, 5.90, 7.53}}};

// Table 1: BT.
constexpr PaperHalf3 kBt1 = {
    {{86.87, 86.89, 96.24}, {27.44, 27.57, 39.53}, {48.51, 48.93, 95.23}},
    {{369.70, 369.55, 409.36}, {108.10, 108.58, 148.39}, {123.79, 124.44, 179.56}},
    {{1585.75, 1585.95, 1756.33}, {419.75, 420.67, 537.73}, {336.84, 336.58, 439.49}}};
constexpr PaperHalf3 kBt4 = {
    {{24.89, 24.88, 27.55}, {53.78, 50.93, 64.13}, {103.27, 102.39, 173.93}},
    {{103.44, 103.40, 114.52}, {85.53, 85.31, 108.94}, {173.78, 174.77, 262.97}},
    {{424.39, 424.51, 470.35}, {219.86, 218.90, 281.38}, {402.26, 403.79, 535.67}}};

// Table 3: FT (negative smm0 = the "-" cells).
constexpr PaperHalf5 kFt1 = {
    {{7.64, 7.61, 8.41}, {6.22, 6.21, 7.96}, {4.25, 4.24, 6.05},
     {2.22, 2.22, 4.32}, {6.50, 6.39, 10.43}},
    {{95.48, 95.65, 106.09}, {76.35, 76.31, 91.46}, {51.85, 51.73, 67.24},
     {26.74, 26.74, 41.52}, {82.18, 82.96, 110.93}},
    {{-1, -1, -1}, {-1, -1, -1}, {216.75, 216.58, 264.44},
     {111.31, 111.44, 145.04}, {315.42, 313.81, 419.34}}};
constexpr PaperHalf5 kFt4 = {
    {{2.49, 2.49, 2.78}, {3.34, 3.34, 4.21}, {5.69, 5.49, 6.96},
     {9.51, 9.22, 13.60}, {20.57, 20.51, 28.42}},
    {{31.20, 31.20, 34.53}, {40.46, 40.38, 49.97}, {39.46, 39.65, 52.37},
     {56.19, 58.01, 74.52}, {127.33, 127.28, 157.82}},
    {{135.96, 136.09, 150.59}, {163.06, 165.12, 200.84}, {125.66, 126.34, 163.17},
     {107.47, 107.88, 141.09}, {339.00, 337.92, 412.11}}};

// Tables 4-5: the HTT-on (ht=1) columns, 4 ranks per node only.
constexpr PaperHalf5 kEp4Htt = {
    {{5.81, 5.81, 6.78}, {2.91, 2.93, 3.45}, {1.46, 1.46, 1.77},
     {0.74, 0.74, 0.99}, {0.39, 0.39, 0.88}},
    {{23.30, 23.24, 26.94}, {11.69, 11.70, 13.56}, {5.86, 6.67, 6.85},
     {2.95, 2.94, 3.56}, {1.48, 1.50, 2.14}},
    {{93.24, 93.33, 108.20}, {46.43, 47.18, 53.94}, {23.44, 23.49, 27.39},
     {11.71, 11.76, 13.77}, {5.91, 5.93, 7.58}}};
constexpr PaperHalf5 kFt4Htt = {
    {{2.49, 2.49, 2.89}, {3.33, 3.33, 4.19}, {5.63, 5.28, 6.97},
     {9.78, 9.89, 12.33}, {20.21, 20.10, 25.69}},
    {{31.08, 31.13, 35.94}, {40.41, 40.30, 50.18}, {39.78, 39.41, 48.86},
     {57.09, 56.23, 69.18}, {127.74, 129.95, 154.64}},
    {{135.59, 135.50, 157.04}, {165.57, 164.33, 206.55}, {125.80, 125.57, 160.26},
     {108.15, 106.92, 134.80}, {331.25, 330.41, 392.96}}};

int node_row(NasBenchmark bench, int nodes) {
  if (bench == NasBenchmark::kBT) {
    switch (nodes) {
      case 1: return 0;
      case 4: return 1;
      case 16: return 2;
      default: return -1;
    }
  }
  switch (nodes) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    case 8: return 3;
    case 16: return 4;
    default: return -1;
  }
}

}  // namespace

std::optional<NasPaperCell> nas_paper_cell(const NasJobSpec& spec) {
  const int ci = class_index(spec.cls);
  const int row = node_row(spec.bench, spec.nodes);
  // The tables ran 1 or 4 ranks per node; no other count borrows them.
  if (row < 0 || (spec.ranks_per_node != 1 && spec.ranks_per_node != 4)) {
    return std::nullopt;
  }
  const double* cell = nullptr;
  if (spec.htt) {
    // Tables 4-5 report HTT on only for EP/FT with 4 ranks per node.
    if (spec.ranks_per_node != 4) return std::nullopt;
    if (spec.bench == NasBenchmark::kEP) {
      cell = kEp4Htt[ci][row];
    } else if (spec.bench == NasBenchmark::kFT) {
      cell = kFt4Htt[ci][row];
    } else {
      return std::nullopt;
    }
  } else if (spec.bench == NasBenchmark::kEP) {
    cell = (spec.ranks_per_node == 1 ? kEp1 : kEp4)[ci][row];
  } else if (spec.bench == NasBenchmark::kBT) {
    cell = (spec.ranks_per_node == 1 ? kBt1 : kBt4)[ci][row];
  } else {
    cell = (spec.ranks_per_node == 1 ? kFt1 : kFt4)[ci][row];
  }
  if (cell[0] < 0) return std::nullopt;
  return NasPaperCell{cell[0], cell[1], cell[2]};
}

std::optional<double> nas_paper_baseline(const NasJobSpec& spec) {
  NasJobSpec base = spec;
  base.htt = false;  // baselines come from the HTT-off tables
  const auto cell = nas_paper_cell(base);
  if (!cell) return std::nullopt;
  return cell->smm0;
}

namespace {

/// BT neighbour offsets on the logical torus: +/-1 (x faces), +/-q (y
/// faces), +/-P/2 (z faces of the multi-partition diagonal), deduplicated.
std::vector<int> bt_partner_offsets(int p) {
  std::vector<int> offsets;
  if (p <= 1) return offsets;
  const int q = static_cast<int>(std::lround(std::sqrt(p)));
  const int candidates[] = {1, p - 1, q, p - q, p / 2, p - p / 2};
  for (const int c : candidates) {
    const int off = c % p;
    if (off == 0) continue;
    if (std::find(offsets.begin(), offsets.end(), off) == offsets.end()) {
      offsets.push_back(off);
    }
  }
  return offsets;
}

/// Per-iteration compute, padded by the calibration residual; the pad may
/// be slightly negative but never below zero total work.
SimDuration nas_iter_work(const NasJobSpec& spec, const NasKnob& knob) {
  const double serial = nas_serial_work_seconds(spec.bench, spec.cls);
  const int niter = nas_iterations(spec.bench, spec.cls);
  const SimDuration nominal = seconds_d(serial / spec.ranks() / niter);
  return std::max(nominal + SimDuration{knob.iter_pad_ns},
                  SimDuration::zero());
}

}  // namespace

int nas_chunk_count(const NasJobSpec& spec) {
  switch (spec.bench) {
    case NasBenchmark::kEP:
      return 1;
    case NasBenchmark::kBT:
      return nas_iterations(spec.bench, spec.cls);
    case NasBenchmark::kFT:
      return nas_iterations(spec.bench, spec.cls) + 1;  // checksum epilogue
  }
  return 0;
}

bool emit_nas_chunk(const NasJobSpec& spec, const NasKnob& knob, int chunk,
                    RankProgram& rp, TagAllocator& tags) {
  const int p = spec.ranks();
  assert(rp.nranks() == p);
  if (chunk >= nas_chunk_count(spec)) return false;
  const SimDuration iter_work = nas_iter_work(spec, knob);

  switch (spec.bench) {
    case NasBenchmark::kEP: {
      // One compute phase, then the final tally allreduces: sx/sy sums and
      // the 10-bin Gaussian deviate counts.
      rp.compute(iter_work);
      allreduce(rp, 16, tags);  // sx, sy
      allreduce(rp, 80, tags);  // q[0..9]
      allreduce(rp, 8, tags);   // timer max
      break;
    }
    case NasBenchmark::kBT: {
      const auto offsets = bt_partner_offsets(p);
      const int base_tag = tags.allocate(static_cast<int>(offsets.size()));
      rp.compute(iter_work);
      const int r = rp.rank();
      for (std::size_t k = 0; k < offsets.size(); ++k) {
        const int off = offsets[k];
        const int dst = (r + off) % p;
        const int src = (r - off + p) % p;
        rp.sendrecv(dst, knob.exchange_bytes, base_tag + static_cast<int>(k),
                    src, base_tag + static_cast<int>(k));
      }
      break;
    }
    case NasBenchmark::kFT: {
      if (chunk < nas_iterations(spec.bench, spec.cls)) {
        rp.compute(iter_work);
        alltoall(rp, knob.exchange_bytes, tags);
      } else {
        // Checksum reduction at the end of every run.
        allreduce(rp, 16, tags);
      }
      break;
    }
  }
  return true;
}

std::unique_ptr<ActionSource> make_nas_rank_source(const NasJobSpec& spec,
                                                   const NasKnob& knob,
                                                   int rank) {
  return std::make_unique<ChunkedProgramSource>(
      rank, spec.ranks(),
      [spec, knob](int chunk, RankProgram& rp, TagAllocator& tags) {
        return emit_nas_chunk(spec, knob, chunk, rp, tags);
      });
}

RankSourceFactory make_nas_rank_sources(const NasJobSpec& spec,
                                        const NasKnob& knob) {
  return [spec, knob](int rank) {
    return make_nas_rank_source(spec, knob, rank);
  };
}

std::vector<RankProgram> build_nas_trace(const NasJobSpec& spec,
                                         const NasKnob& knob) {
  const int p = spec.ranks();
  assert(nas_valid_rank_count(spec.bench, p));
  std::vector<RankProgram> programs = make_rank_programs(p);
  // One pass of the chunk emitter per rank; a fresh allocator per rank
  // reproduces the historical shared-allocator tag sequence because every
  // rank advanced it in lockstep.
  for (auto& rp : programs) {
    TagAllocator tags;
    for (int c = 0; emit_nas_chunk(spec, knob, c, rp, tags); ++c) {
    }
  }
  return programs;
}

}  // namespace smilab
