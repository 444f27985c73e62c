// Reproduces Table 4: effect of HTT on EP with 4 MPI ranks per node, under
// no/short/long SMM intervals.
//
// Usage: table4_ep_htt [--trials=N] [--quick] [--jobs=N]
#include "nas_table.h"

int main(int argc, char** argv) {
  using namespace smilab;
  const auto args = benchtool::BenchArgs::parse(argc, argv);
  NasRunOptions options;
  options.trials = args.trials;
  options.jobs = args.jobs;
  benchtool::BenchJson json{"table4_ep_htt"};
  benchtool::print_htt_table(
      "Table 4: Effect of HTT on EP with 4 MPI ranks per node",
      NasBenchmark::kEP, options, &json);
  json.write();
  return 0;
}
