// Shared pieces of the benchmark runner: clocks, the span recorder used by
// traced runs, and the JSON object every mode prints on stdout.
//
// The runner only measures and reports raw figures; perfbench/run.py turns
// them into metrics, checks them and prints the report.
#pragma once

#include <time.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "smilab/serve/wire.h"

namespace perfbench {

/// Wall clock (monotonic), in nanoseconds and in seconds.
inline std::int64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline double wall_now() { return static_cast<double>(wall_ns()) * 1e-9; }

/// CPU time of the calling thread.
inline double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds of one run of the host-speed reference loop (see HostIndex).
double reference_sample_s();

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Byte-wise FNV-1a over rendered output text.
inline std::uint64_t fnv_text(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// In-memory span log for traced runs: one record per call the benchmark
/// makes into a layer. Disabled, open() returns -1 and close() does nothing,
/// so untraced runs pay one branch per call.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t request = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 14);
  }

  int open(std::string_view name, int parent = -1, std::int64_t request = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::string{name}, wall_ns(), 0, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = wall_ns();
  }

  /// Record a span whose endpoints were measured elsewhere (the serve
  /// client's send and receive stamps). Returns its id, or -1 if disabled.
  int record(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
             int parent, std::int64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::string{name}, start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  void write(smilab::serve::JsonWriter& w) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, int parent = -1,
        std::int64_t request = -1)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Host-speed index. A shared host's speed drifts by tens of percent over
/// seconds with other tenants' memory traffic, and CPU time drifts with it.
/// A fixed reference loop (reference_work(), benchmark code that no product
/// change touches) is timed between segments of the measured work;
/// perfbench/benchlib.py scales each segment's CPU and wall time by the
/// loop's time around it. Ticks come at natural boundaries (after a
/// simulation or block) once kSegmentCpuS of work has run.
class HostIndex {
 public:
  static constexpr double kSegmentCpuS = 0.15;

  /// Starts the first segment with a reference sample.
  void begin();
  /// Closes the current segment if it has run long enough.
  void tick() {
    if (thread_cpu_now() - seg_cpu0_ >= kSegmentCpuS) boundary();
  }
  /// Closes the last segment.
  void end() { boundary(); }
  /// Index of the segment the work now running belongs to.
  [[nodiscard]] int segment() const { return static_cast<int>(cpu_.size()); }
  /// {"ref": [n+1 reference-loop CPU seconds], "cpu": [n], "wall": [n]}.
  void write(smilab::serve::JsonWriter& w, std::string_view key) const;

 private:
  void boundary();
  void sample();

  std::vector<double> ref_;
  std::vector<double> cpu_;
  std::vector<double> wall_;
  double seg_cpu0_ = 0;
  double seg_wall0_ = 0;
};

/// Command-line options shared by every mode: --key=value pairs.
struct Args {
  std::vector<std::pair<std::string, std::string>> values;

  static Args parse(int argc, char** argv, int first);
  [[nodiscard]] std::string get(std::string_view key, std::string fallback) const;
  [[nodiscard]] long long get_int(std::string_view key, long long fallback) const;
};

int run_paper_quick(const Args& args);
int run_paper_setup(const Args& args);
int run_rank_scale(const Args& args);
int run_serve_client(const Args& args);
int run_host_index(const Args& args);

/// Print the finished JSON object as the single stdout line.
void emit(smilab::serve::JsonWriter& w);

}  // namespace perfbench
