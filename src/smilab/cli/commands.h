// The smilab CLI command layer: each subcommand runs an experiment from
// command-line knobs and writes a human-readable report (optionally plus a
// Chrome trace) to a stream. Kept in the library so commands are testable
// without spawning processes.
//
// Subcommands:
//   nas        one NAS table cell (EP/BT/FT x class x nodes x rpn x HTT)
//   convolve   the Figure-1 workload at one (cpus, gap) point
//   unixbench  the Figure-2 index at one (cpus, gap) point
//   detect     hwlat-style SMI detection scored against ground truth
//   rim        a RIM security policy's slowdown / detection-latency trade
//   faults     a ring-exchange MPI job under an injected fault plan
//   help       usage
//
// Exit codes: 0 success, 2 usage error, 3 simulation fault (run_cli maps
// SimulationError to 3 and prints the diagnosis to the error stream).
#pragma once

#include <optional>
#include <ostream>
#include <string>

#include "smilab/cli/options.h"
#include "smilab/serve/request.h"

namespace smilab {

/// Dispatch a parsed command line. Returns a process exit code.
int run_cli_command(const Options& options, std::ostream& out,
                    std::ostream& err);

/// Top-level entry used by tools/smilab_main.cpp.
int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err);

/// The experiment `kind` (nas, convolve, unixbench) read from its flags
/// through serve's request schema. nullopt + *error on an invalid value;
/// leftover flags are the caller's check.
std::optional<serve::ExperimentRequest> parse_experiment_flags(
    serve::ExperimentKind kind, const Options& options, std::string* error);

/// The usage text (exposed for tests).
const char* cli_usage();

}  // namespace smilab
