// Shared helpers for the NAS table benches (Tables 1-5).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.h"
#include "smilab/apps/nas/nas.h"
#include "smilab/apps/nas/runner.h"
#include "smilab/core/paper_tables.h"
#include "smilab/core/sweep.h"
#include "smilab/stats/table.h"

namespace smilab::benchtool {

/// Parse "--trials=N" / "--quick" / "--jobs=N" style args shared by the
/// bench binaries.
struct BenchArgs {
  int trials = 6;  // the paper averaged six runs
  bool quick = false;
  std::string csv_prefix;  ///< --csv=PREFIX: also write series as CSV files
  /// Grid-cell worker threads (core/sweep.h). 0 = hardware concurrency;
  /// --jobs=1 reproduces the historical serial path exactly (results are
  /// byte-identical at any value either way).
  int jobs = 0;

  [[nodiscard]] int effective_jobs() const {
    return smilab::effective_jobs(jobs);
  }

  /// Parse the shared flags. `extra_flags` declares the bench's own flags,
  /// which it reads from argv itself: an entry ending in '=' takes a value
  /// ("--max-ranks="), any other is a bare switch ("--no-table"). Any other
  /// `--` argument prints usage to stderr and exits 2, so a mistyped flag
  /// never silently runs the default configuration.
  static BenchArgs parse(
      int argc, char** argv,
      std::initializer_list<std::string_view> extra_flags = {}) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trials=", 0) == 0) {
        args.trials = std::max(1, std::atoi(arg.c_str() + 9));
      } else if (arg.rfind("--jobs=", 0) == 0) {
        args.jobs = std::max(0, std::atoi(arg.c_str() + 7));
      } else if (arg.rfind("--csv=", 0) == 0) {
        args.csv_prefix = arg.substr(6);
      } else if (arg == "--quick") {
        args.quick = true;
        args.trials = 2;
      } else if (arg.rfind("--", 0) == 0 && !declared(arg, extra_flags)) {
        std::fprintf(stderr,
                     "%s: unknown flag '%s'\nusage: %s [--trials=N] [--quick] "
                     "[--jobs=N] [--csv=PREFIX]",
                     argv[0], arg.c_str(), argv[0]);
        for (const std::string_view flag : extra_flags) {
          std::fprintf(stderr, " [%.*s%s]", static_cast<int>(flag.size()),
                       flag.data(), flag.ends_with('=') ? "N" : "");
        }
        std::fprintf(stderr, "\n");
        std::exit(2);
      }
    }
    return args;
  }

 private:
  static bool declared(std::string_view arg,
                       std::initializer_list<std::string_view> extra_flags) {
    for (const std::string_view flag : extra_flags) {
      if (flag.ends_with('=') ? arg.starts_with(flag) : arg == flag) {
        return true;
      }
    }
    return false;
  }
};

/// Write `text` to `path`, reporting on stdout (used by the --csv flag).
inline void write_file_report(const std::string& path, const std::string& text) {
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("(csv written to %s)\n", path.c_str());
  } else {
    std::printf("(could not write %s)\n", path.c_str());
  }
}

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

/// Print one paper table (both rank-per-node halves) for `bench`:
/// measured SMM0/1/2 with deltas and percentages, next to the paper's
/// percentages for the same cells. Generation lives in
/// smilab/core/paper_tables.h (unit-tested); this only formats. If `json`
/// is non-null, the grid wall time and cell count are recorded there.
inline void print_nas_table(const char* title, NasBenchmark bench,
                            const std::vector<int>& node_rows,
                            const NasRunOptions& options,
                            BenchJson* json = nullptr) {
  std::printf("=== %s ===\n", title);
  std::printf("(measured = smilab simulation, %d trials, %d jobs; 'paper %%' "
              "columns are the published deltas)\n\n",
              options.trials, effective_jobs(options.jobs));
  const WallTimer timer;
  for (const int rpn : {1, 4}) {
    std::printf("--- %d MPI rank%s per node ---\n", rpn, rpn == 1 ? "" : "s");
    std::fflush(stdout);
    const Table table = build_nas_table(bench, node_rows, rpn, options);
    std::printf("%s\n", table.to_aligned_text().c_str());
    std::fflush(stdout);
  }
  if (json != nullptr) {
    json->set("trials", options.trials);
    json->set("jobs", effective_jobs(options.jobs));
    json->set("grid_wall_s", timer.seconds());
  }
}

/// Print a Table 4/5-style HTT comparison (4 ranks per node, ht=0 vs ht=1)
/// for `bench` under SMM 0/1/2.
inline void print_htt_table(const char* title, NasBenchmark bench,
                            const NasRunOptions& options,
                            BenchJson* json = nullptr) {
  std::printf("=== %s ===\n", title);
  std::printf("(ht=0: siblings offline; ht=1: all 8 logical CPUs online; "
              "%d trials, %d jobs; paper d%% is the published SMM2 HTT "
              "delta)\n\n",
              options.trials, effective_jobs(options.jobs));
  std::fflush(stdout);
  const WallTimer timer;
  const Table table = build_htt_table(bench, options);
  std::printf("%s\n", table.to_aligned_text().c_str());
  if (json != nullptr) {
    json->set("trials", options.trials);
    json->set("jobs", effective_jobs(options.jobs));
    json->set("grid_wall_s", timer.seconds());
  }
}

}  // namespace smilab::benchtool
