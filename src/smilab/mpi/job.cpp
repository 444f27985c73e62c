#include "smilab/mpi/job.h"

#include <cassert>
#include <stdexcept>

namespace smilab {

namespace {

/// Create the group and one spin-waiting task per rank, with the rank's
/// ActionSource built by `sources`.
MpiJobResult spawn_mpi_job(System& sys, int nranks,
                           const std::vector<int>& placement,
                           const WorkloadProfile& profile,
                           const std::string& job_name,
                           const RankSourceFactory& sources) {
  assert(nranks >= 1);
  if (placement.size() != static_cast<std::size_t>(nranks)) {
    throw std::invalid_argument("placement size != rank count");
  }

  MpiJobResult result;
  result.group = sys.create_group(nranks);
  result.rank_tasks.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    TaskSpec spec;
    spec.name = job_name + ".rank" + std::to_string(r);
    spec.node = placement[static_cast<std::size_t>(r)];
    spec.profile = profile;
    spec.wait_policy = WaitPolicy::kSpin;  // MPI busy-polls by default
    spec.actions = sources(r);
    result.rank_tasks.push_back(
        sys.spawn_member(result.group, r, std::move(spec)));
  }
  return result;
}

/// Whole programs as rank sources: rank r's source takes programs[r].
RankSourceFactory program_sources(std::vector<RankProgram>& programs) {
  return [&programs](int r) -> std::unique_ptr<ActionSource> {
    return std::make_unique<VectorActions>(
        programs[static_cast<std::size_t>(r)].take());
  };
}

void collect_rank_stats(const System& sys, MpiJobResult& result) {
  result.rank_stats.clear();
  result.rank_stats.reserve(result.rank_tasks.size());
  for (const TaskId id : result.rank_tasks) {
    result.rank_stats.push_back(sys.task_stats(id));
  }
}

MpiJobResult finish_run(System& sys, MpiJobResult result, SimTime start) {
  sys.run();
  result.elapsed = sys.group_finish_time(result.group) - start;
  collect_rank_stats(sys, result);
  result.transport = sys.transport_stats();
  return result;
}

MpiJobRunResult finish_try_run(System& sys, MpiJobRunResult out, SimTime start) {
  out.run = sys.try_run();

  collect_rank_stats(sys, out.job);
  // group_finish_time requires every member to have finished; a stuck run
  // or a crash-killed rank reports the diagnosis time instead.
  bool clean = out.run.ok();
  for (const TaskStats& s : out.job.rank_stats) {
    if (!s.finished) clean = false;
  }
  out.job.elapsed = clean ? sys.group_finish_time(out.job.group) - start
                          : sys.now() - start;
  out.job.transport = sys.transport_stats();
  return out;
}

}  // namespace

MpiJobResult run_mpi_job(System& sys, std::vector<RankProgram> programs,
                         const std::vector<int>& placement,
                         const WorkloadProfile& profile,
                         const std::string& job_name) {
  return run_mpi_job_streaming(sys, static_cast<int>(programs.size()),
                               program_sources(programs), placement, profile,
                               job_name);
}

MpiJobRunResult try_run_mpi_job(System& sys, std::vector<RankProgram> programs,
                                const std::vector<int>& placement,
                                const WorkloadProfile& profile,
                                const std::string& job_name) {
  return try_run_mpi_job_streaming(sys, static_cast<int>(programs.size()),
                                   program_sources(programs), placement,
                                   profile, job_name);
}

MpiJobResult run_mpi_job_streaming(System& sys, int nranks,
                                   const RankSourceFactory& sources,
                                   const std::vector<int>& placement,
                                   const WorkloadProfile& profile,
                                   const std::string& job_name) {
  const SimTime start = sys.now();
  return finish_run(
      sys, spawn_mpi_job(sys, nranks, placement, profile, job_name, sources),
      start);
}

MpiJobRunResult try_run_mpi_job_streaming(System& sys, int nranks,
                                          const RankSourceFactory& sources,
                                          const std::vector<int>& placement,
                                          const WorkloadProfile& profile,
                                          const std::string& job_name) {
  const SimTime start = sys.now();
  MpiJobRunResult out;
  out.job = spawn_mpi_job(sys, nranks, placement, profile, job_name, sources);
  return finish_try_run(sys, std::move(out), start);
}

}  // namespace smilab
