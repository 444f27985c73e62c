// Machine-readable bench output: each bench binary writes a flat
// BENCH_<name>.json next to its stdout report (event throughput, cache-sim
// refs/sec, end-to-end grid wall time, jobs used), so the perf trajectory
// is tracked across PRs by diffing artifacts instead of scraping stdout.
#pragma once

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace smilab::benchtool {

/// Wall-clock timer for end-to-end grid timings.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-thread CPU time. For single-threaded deterministic work this is far
/// more stable than wall clock on shared machines: time stolen by other
/// processes does not count against the measurement.
class CpuTimer {
 public:
  CpuTimer() : start_(read()) {}
  [[nodiscard]] double seconds() const { return read() - start_; }

 private:
  static double read() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
#else
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
#endif
  }

  double start_;
};

/// Flat JSON object accumulated in insertion order and written as
/// BENCH_<name>.json in the working directory.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    set("bench", name_);
  }

  void set(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + escaped(value) + "\"");
  }
  void set(const std::string& key, const char* value) {
    set(key, std::string{value});
  }
  void set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    fields_.emplace_back(key, buf);
  }
  void set(const std::string& key, long long value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void set(const std::string& key, int value) {
    set(key, static_cast<long long>(value));
  }
  void set(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }

  /// Writes BENCH_<name>.json; reports the path (or failure) on stdout.
  /// A --quick run (`"quick": true`) keeps an existing file that holds a
  /// full run (`"quick": false`), such as the committed copies at the
  /// repository root.
  void write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    if (is_quick() && holds_full_run(path)) {
      std::printf("(kept %s: it holds a full run, and this run is --quick)\n",
                  path.c_str());
      return;
    }
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("(could not write %s)\n", path.c_str());
      return;
    }
    std::fputs("{\n", f);
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", escaped(fields_[i].first).c_str(),
                   fields_[i].second.c_str(),
                   i + 1 < fields_.size() ? "," : "");
    }
    std::fputs("}\n", f);
    std::fclose(f);
    std::printf("(bench json written to %s)\n", path.c_str());
  }

 private:
  [[nodiscard]] bool is_quick() const {
    for (const auto& [key, value] : fields_) {
      if (key == "quick") return value == "true";
    }
    return false;
  }

  static bool holds_full_run(const std::string& path) {
    std::ifstream in(path);
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    return text.find("\"quick\": false") != std::string::npos;
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace smilab::benchtool
