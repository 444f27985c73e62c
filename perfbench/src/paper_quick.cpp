// paper_quick: what a user reproducing the paper runs — Tables 1-5 and
// Figures 1-2 at the bench binaries' --quick settings, on one thread.
//
// Set-up is every process-wide memo the tables and figures need: the two
// Convolve cache replays and calibrate_nas_knob for every NAS cell. The
// timed pass is the measurement simulations only. jobs=1 throughout:
// calibrate_nas_knob computes outside its memo lock, so with more workers
// the ht=0 and ht=1 rows of Tables 4-5 may calibrate one cell twice and CPU
// time would depend on thread timing.
//
// The seed selects one of kVariants input variants (NAS and figure trial
// seeds); variant 0 reproduces the bench binaries' own seeds.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "smilab/apps/convolve/workload.h"
#include "smilab/apps/nas/nas.h"
#include "smilab/apps/nas/runner.h"
#include "smilab/apps/unixbench/unixbench.h"
#include "smilab/core/paper_tables.h"
#include "smilab/stats/online_stats.h"
#include "smilab/stats/table.h"

namespace perfbench {
namespace {

using namespace smilab;

constexpr std::uint64_t kVariants = 16;
constexpr std::uint64_t kVariantStride = 1'000'003;
constexpr int kNasTrials = 2;       // BenchArgs --quick
constexpr int kFig1Trials = 2;      // fig1_convolve --quick
constexpr int kFig1GapStepMs = 250;

struct NasTableSpec {
  const char* name;
  NasBenchmark bench;
  std::vector<int> node_rows;
};

const std::vector<NasTableSpec>& nas_tables() {
  static const std::vector<NasTableSpec> tables{
      {"table1", NasBenchmark::kBT, {1, 4, 16}},
      {"table2", NasBenchmark::kEP, {1, 2, 4, 8, 16}},
      {"table3", NasBenchmark::kFT, {1, 2, 4, 8, 16}},
  };
  return tables;
}

struct HttTableSpec {
  const char* name;
  NasBenchmark bench;
};
constexpr HttTableSpec kHttTables[] = {{"table4", NasBenchmark::kEP},
                                       {"table5", NasBenchmark::kFT}};
constexpr NasClass kClasses[] = {NasClass::kA, NasClass::kB, NasClass::kC};

/// The cells build_nas_table (reported cells of both halves) and
/// build_htt_table (every valid 4-rank/node row) run, in calibration-memo
/// key order, plus the number of NAS simulations one pass makes.
struct NasCells {
  std::vector<NasJobSpec> calibrate;
  int sims = 0;
};

NasCells nas_cells() {
  NasCells out;
  std::map<std::tuple<int, int, int, int>, NasJobSpec> unique;
  const auto add = [&](const NasJobSpec& spec) {
    unique.emplace(std::tuple{static_cast<int>(spec.bench),
                              static_cast<int>(spec.cls), spec.nodes,
                              spec.ranks_per_node},
                   spec);
  };
  for (const NasTableSpec& t : nas_tables()) {
    for (const int rpn : {1, 4}) {
      for (const NasClass cls : kClasses) {
        for (const int nodes : t.node_rows) {
          const NasJobSpec spec{t.bench, cls, nodes, rpn};
          if (!nas_valid_rank_count(t.bench, spec.ranks())) continue;
          if (!nas_paper_reports(spec)) continue;
          add(spec);
          out.sims += 3 * kNasTrials;
        }
      }
    }
  }
  for (const HttTableSpec& t : kHttTables) {
    const NasBenchmark bench = t.bench;
    for (const NasClass cls : kClasses) {
      for (const int nodes : {1, 2, 4, 8, 16}) {
        const NasJobSpec spec{bench, cls, nodes, 4};
        if (!nas_valid_rank_count(bench, spec.ranks())) continue;
        add(spec);
        out.sims += 2 * 3 * kNasTrials;  // ht=0 and ht=1
      }
    }
  }
  for (const auto& [key, spec] : unique) out.calibrate.push_back(spec);
  return out;
}

struct SetupResult {
  HostIndex index;
  std::int64_t refs = 0;  ///< cache references replayed
  int cells = 0;
};

SetupResult setup(Tracer& tracer, int parent) {
  SetupResult r;
  r.index.begin();
  {
    const Scope replay{tracer, "cache.replay", parent};
    {
      const Scope s{tracer, "cache_unfriendly_workload", replay.id()};
      r.refs += static_cast<std::int64_t>(
          ConvolveWorkload::cache_unfriendly_workload().cache.stats.accesses);
    }
    r.index.tick();
    {
      const Scope s{tracer, "cache_friendly_workload", replay.id()};
      r.refs += static_cast<std::int64_t>(
          ConvolveWorkload::cache_friendly_workload().cache.stats.accesses);
    }
  }
  {
    const Scope calibrate{tracer, "nas.calibrate", parent};
    for (const NasJobSpec& spec : nas_cells().calibrate) {
      {
        const Scope s{tracer, "calibrate_nas_knob", calibrate.id()};
        (void)calibrate_nas_knob(spec);
      }
      ++r.cells;
      r.index.tick();
    }
  }
  r.index.end();
  return r;
}

struct PassResult {
  HostIndex index;
  /// FNV-1a of each rendered table and figure series, by artifact name.
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  double repro_err_pp = 0;
  int repro_cells = 0;
  int nas_sims = 0;
  int convolve_sims = 0;
  int unixbench_sims = 0;
};

class Pass {
 public:
  Pass(std::uint64_t variant, Tracer& tracer, int parent)
      : variant_(variant), tracer_(tracer), parent_(parent) {}

  PassResult run() {
    r_.index.begin();
    {
      const Scope pass{tracer_, "paper_quick.pass", parent_};
      nas(pass.id());
      fig1(pass.id());
      fig2(pass.id());
    }
    r_.index.end();
    if (repro_.count() > 0) r_.repro_err_pp = repro_.mean();
    r_.repro_cells = static_cast<int>(repro_.count());
    return r_;
  }

 private:
  std::uint64_t fig_seed(std::uint64_t cell_seed) const {
    return variant_ * kVariantStride + cell_seed;
  }

  void nas(int parent) {
    const Scope layer{tracer_, "nas.tables", parent};
    NasRunOptions options;
    options.trials = kNasTrials;
    options.jobs = 1;
    options.seed = 2016 + variant_;
    for (const NasTableSpec& t : nas_tables()) {
      for (const int rpn : {1, 4}) {
        const Table table = [&] {
          const Scope s{tracer_, "build_nas_table", layer.id()};
          return build_nas_table(t.bench, t.node_rows, rpn, options);
        }();
        r_.index.tick();
        artifact(std::string{t.name} + ".rpn" + std::to_string(rpn),
                 table.to_aligned_text());
        for (std::size_t row = 0; row < table.row_count(); ++row) {
          const std::string& measured = table.at(row, 9);   // %2
          const std::string& paper = table.at(row, 11);     // paper %2
          if (measured == "-" || paper == "-") continue;
          repro_.add(std::abs(std::strtod(measured.c_str(), nullptr) -
                              std::strtod(paper.c_str(), nullptr)));
        }
      }
    }
    for (const HttTableSpec& t : kHttTables) {
      const Table table = [&] {
        const Scope s{tracer_, "build_htt_table", layer.id()};
        return build_htt_table(t.bench, options);
      }();
      r_.index.tick();
      artifact(t.name, table.to_aligned_text());
    }
    r_.nas_sims = nas_cells().sims;
  }

  double convolve(int parent, const ConvolveWorkload& w, int cpus,
                  const SmiConfig& smi, std::uint64_t cell_seed) {
    double seconds = 0;
    {
      const Scope s{tracer_, "run_convolve_sim", parent};
      seconds = run_convolve_sim(w, cpus, smi, fig_seed(cell_seed)).seconds;
    }
    ++r_.convolve_sims;
    r_.index.tick();
    return seconds;
  }

  double unixbench(int parent, UnixBenchOptions opts, std::uint64_t cell_seed) {
    opts.seed = fig_seed(cell_seed);
    double index = 0;
    {
      const Scope s{tracer_, "run_unixbench", parent};
      index = run_unixbench(opts).index;
    }
    ++r_.unixbench_sims;
    r_.index.tick();
    return index;
  }

  // Figure 1 as fig1_convolve --quick --jobs=1 computes it.
  void fig1(int parent) {
    const Scope layer{tracer_, "convolve.grid", parent};
    const ConvolveWorkload cu = ConvolveWorkload::cache_unfriendly_workload();
    const ConvolveWorkload cf = ConvolveWorkload::cache_friendly_workload();
    for (const auto& [name, w] : {std::pair{"fig1.cu", &cu}, std::pair{"fig1.cf", &cf}}) {
      std::vector<std::string> names;
      for (int cpus = 1; cpus <= 8; ++cpus) {
        names.push_back(std::to_string(cpus) + "cpu");
      }
      Series series{"gap_ms", names};
      std::vector<double> baselines;
      for (int cpus = 1; cpus <= 8; ++cpus) {
        baselines.push_back(convolve(layer.id(), *w, cpus, SmiConfig::none(), 1));
      }
      series.add_point(0, baselines);
      for (int gap = 50; gap <= 1500; gap += kFig1GapStepMs) {
        std::vector<double> ys;
        for (int cpus = 1; cpus <= 8; ++cpus) {
          OnlineStats stats;
          for (int trial = 0; trial < kFig1Trials; ++trial) {
            stats.add(convolve(layer.id(), *w, cpus, SmiConfig::long_with_gap(gap),
                               static_cast<std::uint64_t>(gap * 131 + cpus * 17 + trial)));
          }
          ys.push_back(stats.mean());
        }
        series.add_point(gap, ys);
      }
      artifact(name, series.to_aligned_text(6));
    }
    const double base = convolve(layer.id(), cf, 8, SmiConfig::none(), 5);
    const double shrt = convolve(layer.id(), cf, 8, SmiConfig::short_with_gap(50), 5);
    artifact("fig1.short", std::to_string(base) + " " + std::to_string(shrt));
  }

  // Figure 2 as fig2_unixbench --quick --jobs=1 computes it.
  void fig2(int parent) {
    const Scope layer{tracer_, "unixbench.grid", parent};
    std::vector<std::string> names;
    for (int cpus = 1; cpus <= 8; ++cpus) {
      names.push_back(std::to_string(cpus) + "cpu");
    }
    Series series{"gap_ms", names};
    UnixBenchOptions single;
    single.online_cpus = 1;
    series.add_point(-1, {unixbench(layer.id(), single, 1), 0, 0, 0, 0, 0, 0, 0});
    for (const int gap : {100, 600, 1100, 1600}) {
      std::vector<double> ys;
      for (int cpus = 1; cpus <= 8; ++cpus) {
        UnixBenchOptions opts;
        opts.online_cpus = cpus;
        opts.smi = SmiConfig::long_with_gap(gap);
        ys.push_back(unixbench(layer.id(), opts,
                               static_cast<std::uint64_t>(gap * 37 + cpus * 11)));
      }
      series.add_point(gap, ys);
    }
    std::vector<double> clean;
    for (int cpus = 1; cpus <= 8; ++cpus) {
      UnixBenchOptions opts;
      opts.online_cpus = cpus;
      clean.push_back(unixbench(layer.id(), opts, 1));
    }
    series.add_point(1e9, clean);
    UnixBenchOptions base_opts;
    UnixBenchOptions short_opts;
    short_opts.smi = SmiConfig::short_with_gap(100);
    series.add_point(-2, {unixbench(layer.id(), base_opts, 1),
                          unixbench(layer.id(), short_opts, 1), 0, 0, 0, 0, 0, 0});
    artifact("fig2", series.to_aligned_text(6));
  }

  void artifact(std::string name, const std::string& text) {
    r_.digests.emplace_back(std::move(name), fnv_text(text));
  }

  std::uint64_t variant_;
  Tracer& tracer_;
  int parent_;
  PassResult r_;
  OnlineStats repro_;
};

void write_setup(smilab::serve::JsonWriter& w, const SetupResult& s) {
  smilab::serve::JsonWriter o;
  o.begin_object();
  s.index.write(o, "index");
  o.field("refs", s.refs);
  o.field("cells", s.cells);
  o.end_object();
  w.raw_field("setup", o.str());
}

void write_passes(smilab::serve::JsonWriter& w, std::string_view key,
                  const std::vector<PassResult>& passes) {
  w.begin_array(key);
  for (const PassResult& p : passes) {
    w.begin_object();
    p.index.write(w, "index");
    smilab::serve::JsonWriter d;
    d.begin_object();
    for (const auto& [name, digest] : p.digests) {
      d.field(name, smilab::serve::key_hex(digest));
    }
    d.end_object();
    w.raw_field("digests", d.str());
    w.field("repro_err_pp", p.repro_err_pp);
    w.field("repro_cells", p.repro_cells);
    w.field("nas_sims", p.nas_sims);
    w.field("convolve_sims", p.convolve_sims);
    w.field("unixbench_sims", p.unixbench_sims);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

int run_paper_setup(const Args& args) {
  Tracer off{false};
  const SetupResult s = setup(off, -1);
  smilab::serve::JsonWriter w;
  w.begin_object();
  w.field("mode", "paper_setup");
  w.field("seed", static_cast<std::int64_t>(args.get_int("seed", 0)));
  write_setup(w, s);
  w.end_object();
  emit(w);
  return 0;
}

int run_paper_quick(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  const long long passes = args.get_int("passes", 1);
  const bool trace = args.get_int("trace", 0) != 0;
  if (passes < 1) throw std::invalid_argument("--passes must be >= 1");
  const std::uint64_t variant = seed % kVariants;

  Tracer tracer{trace};
  SetupResult setup_result;
  {
    const Scope root{tracer, "paper_quick.setup"};
    setup_result = setup(tracer, root.id());
  }
  // A traced run first repeats the pass untraced, so the report can state
  // the tracing overhead on identical work.
  std::vector<PassResult> untraced;
  if (trace) {
    Tracer off{false};
    untraced.push_back(Pass{variant, off, -1}.run());
  }
  std::vector<PassResult> timed;
  for (long long i = 0; i < passes; ++i) {
    timed.push_back(Pass{variant, tracer, -1}.run());
  }

  smilab::serve::JsonWriter w;
  w.begin_object();
  w.field("mode", "paper_quick");
  w.field("seed", static_cast<std::int64_t>(seed));
  w.field("variant", static_cast<std::int64_t>(variant));
  write_setup(w, setup_result);
  write_passes(w, "passes", timed);
  write_passes(w, "untraced_passes", untraced);
  w.field("peak_rss_mb", peak_rss_mb());
  tracer.write(w);
  w.end_object();
  emit(w);
  return 0;
}

}  // namespace perfbench
