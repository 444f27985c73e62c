// Reproduces Table 5: effect of HTT on FT with 4 MPI ranks per node, under
// no/short/long SMM intervals.
//
// Usage: table5_ft_htt [--trials=N] [--quick] [--jobs=N]
#include "nas_table.h"

int main(int argc, char** argv) {
  using namespace smilab;
  const auto args = benchtool::BenchArgs::parse(argc, argv);
  NasRunOptions options;
  options.trials = args.trials;
  options.jobs = args.jobs;
  benchtool::BenchJson json{"table5_ft_htt"};
  benchtool::print_htt_table(
      "Table 5: Effect of HTT on FT with 4 MPI ranks per node",
      NasBenchmark::kFT, options, &json);
  json.write();
  return 0;
}
