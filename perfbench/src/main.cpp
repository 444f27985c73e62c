// perfbench_runner: the measuring half of the benchmark.
//
//   perfbench_runner paper_quick  --seed=N --passes=N --trace=0|1
//   perfbench_runner paper_setup  --seed=N
//   perfbench_runner rank_scale   --seconds=N --trace=0|1
//   perfbench_runner serve_client --socket=@NAME --schedule=FILE --warmup=FILE
//                                 --trace=0|1
//   perfbench_runner host_index   (five host-speed reference samples)
//
// Each mode prints one JSON object of raw measurements on stdout and exits 0;
// usage errors exit 2. Simulation runs on the calling thread only.
#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void Tracer::write(smilab::serve::JsonWriter& w) const {
  w.begin_array("spans");
  for (const Span& s : spans_) {
    w.begin_object();
    w.field("n", s.name);
    w.field("s", s.start_ns);
    w.field("e", s.end_ns);
    w.field("p", s.parent);
    w.field("r", s.request);
    w.end_object();
  }
  w.end_array();
}

namespace {

/// splitmix64 step of reference_work's generator.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The host-speed reference: heap and hash-map churn like the simulator's
/// event queue and matching tables, over a few MB. Must never change:
/// scaled figures compare across commits only while this loop stays the
/// same.
std::uint64_t reference_work() {
  constexpr int table_bits = 18;
  constexpr std::size_t heap_cap = 30000;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(std::size_t{1} << (table_bits - 1));
  const std::uint64_t mask = (std::uint64_t{1} << table_bits) - 1;
  std::uint64_t x = 1;
  std::uint64_t acc = 0;
  for (int i = 0; i < 40000; ++i) {
    x = mix(x);
    heap.push(x >> 8);
    table[x & mask] += static_cast<std::uint64_t>(i);
    if (heap.size() > heap_cap) {
      acc += heap.top();
      heap.pop();
    }
    acc += table[(x >> 20) & mask];
  }
  return acc;
}

}  // namespace

double reference_sample_s() {
  static std::atomic<std::uint64_t> sink{0};
  // A thread's first run pays for faulting in its allocator arena; time
  // only warm runs.
  thread_local bool warm = false;
  if (!warm) {
    sink += reference_work();
    warm = true;
  }
  const double t0 = thread_cpu_now();
  sink += reference_work();
  return thread_cpu_now() - t0;
}

void HostIndex::begin() {
  sample();
  seg_cpu0_ = thread_cpu_now();
  seg_wall0_ = wall_now();
}

void HostIndex::boundary() {
  cpu_.push_back(thread_cpu_now() - seg_cpu0_);
  wall_.push_back(wall_now() - seg_wall0_);
  sample();
  seg_cpu0_ = thread_cpu_now();
  seg_wall0_ = wall_now();
}

void HostIndex::sample() { ref_.push_back(reference_sample_s()); }

void HostIndex::write(smilab::serve::JsonWriter& w, std::string_view key) const {
  smilab::serve::JsonWriter o;
  o.begin_object();
  for (const auto& [name, values] :
       {std::pair{"ref", &ref_}, std::pair{"cpu", &cpu_},
        std::pair{"wall", &wall_}}) {
    o.begin_array(name);
    for (const double v : *values) o.element(v);
    o.end_array();
  }
  o.end_object();
  w.raw_field(key, o.str());
}

Args Args::parse(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got '" + arg + "'");
    }
    args.values.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
  }
  return args;
}

std::string Args::get(std::string_view key, std::string fallback) const {
  for (const auto& [k, v] : values) {
    if (k == key) return v;
  }
  return fallback;
}

long long Args::get_int(std::string_view key, long long fallback) const {
  const std::string text = get(key, "");
  if (text.empty()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    throw std::invalid_argument("--" + std::string{key} + " must be an integer");
  }
  return v;
}

void emit(smilab::serve::JsonWriter& w) {
  std::cout << w.str() << "\n";
  std::cout.flush();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench_runner paper_quick|paper_setup|rank_scale|"
                 "serve_client|host_index --key=value...\n";
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const Args args = Args::parse(argc, argv, 2);
    if (mode == "paper_quick") return run_paper_quick(args);
    if (mode == "paper_setup") return run_paper_setup(args);
    if (mode == "rank_scale") return run_rank_scale(args);
    if (mode == "serve_client") return run_serve_client(args);
    if (mode == "host_index") return run_host_index(args);
    std::cerr << "perfbench_runner: unknown mode '" << mode << "'\n";
    return 2;
  } catch (const std::invalid_argument& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << mode << " failed: " << e.what() << "\n";
    return 1;
  }
}
