// MPI job launcher: spawn one task per rank onto the cluster and run to
// completion, reporting per-rank stats and the job's wall time.
#pragma once

#include <string>
#include <vector>

#include "smilab/mpi/program.h"
#include "smilab/mpi/streaming.h"
#include "smilab/sim/system.h"

namespace smilab {

struct MpiJobResult {
  SimDuration elapsed;               ///< start -> last rank finish
  GroupId group;
  std::vector<TaskId> rank_tasks;
  std::vector<TaskStats> rank_stats;
  /// Message pool / ack-router usage at job completion (sim/transport.h);
  /// pool_live == 0 here means the transport drained fully.
  TransportStats transport;

  [[nodiscard]] SimDuration total_smm_stolen() const {
    SimDuration total{};
    for (const auto& s : rank_stats) total += s.smm_stolen_time;
    return total;
  }
};

/// Spawn `programs[r]` as rank r on node `placement[r]` and run the system
/// until every task (including unrelated ones) finishes.
///
/// A convenience for tests, examples and benches that build whole programs
/// up front: it adapts each program into a source that yields its actions
/// and calls run_mpi_job_streaming. Product paths stream their programs
/// chunk by chunk instead, so a job's memory stays O(ranks).
MpiJobResult run_mpi_job(System& sys, std::vector<RankProgram> programs,
                         const std::vector<int>& placement,
                         const WorkloadProfile& profile,
                         const std::string& job_name = "mpi");

/// Outcome of try_run_mpi_job. When `run.ok()` the job-level fields are
/// fully populated; otherwise `run.diagnosis` explains what every stuck
/// rank was blocked on, `job.rank_stats` still carries per-rank accounting
/// up to the stall (elapsed covers start -> diagnosis time).
struct MpiJobRunResult {
  RunResult run;
  MpiJobResult job;

  [[nodiscard]] bool ok() const { return run.ok(); }
};

/// Non-throwing variant of run_mpi_job for fault-injection experiments: a
/// deadlocked, hung or timed-out run returns the structured diagnosis
/// instead of propagating SimulationError. The same convenience adapter
/// over try_run_mpi_job_streaming.
MpiJobRunResult try_run_mpi_job(System& sys, std::vector<RankProgram> programs,
                                const std::vector<int>& placement,
                                const WorkloadProfile& profile,
                                const std::string& job_name = "mpi");

/// The job launcher: spawn `nranks` ranks whose actions come from
/// `sources(rank)` (typically ChunkedProgramSources, mpi/streaming.h).
MpiJobResult run_mpi_job_streaming(System& sys, int nranks,
                                   const RankSourceFactory& sources,
                                   const std::vector<int>& placement,
                                   const WorkloadProfile& profile,
                                   const std::string& job_name = "mpi");

/// Non-throwing streaming variant (fault-injection experiments).
MpiJobRunResult try_run_mpi_job_streaming(System& sys, int nranks,
                                          const RankSourceFactory& sources,
                                          const std::vector<int>& placement,
                                          const WorkloadProfile& profile,
                                          const std::string& job_name = "mpi");

}  // namespace smilab
