// Parallel experiment sweep: every table and figure in the paper is a grid
// of independent (config, seed) simulations, so the grid — not the event
// loop — is the parallel axis. ExperimentSweep fans cell indices across a
// pool of OS threads; each cell owns its System/Engine/RNG (no shared
// mutable state), and results land in a pre-sized vector at the cell's own
// grid index, so output order is deterministic and byte-identical to the
// serial run regardless of jobs or interleaving.
//
// Determinism contract (DESIGN.md §8): a cell function must be a pure
// function of its index — derive every seed from the index, never from
// shared counters or the thread id. Under that contract, jobs=N and jobs=1
// produce identical bytes; jobs=1 runs inline on the calling thread with no
// pool at all (exactly the historical serial path).
//
// SweepPool is the persistent form of the same worker loop: its threads
// outlive any one batch, so a long-lived consumer like `smilab serve` keeps
// warm workers across thousands of requests. ExperimentSweep::for_each runs
// its batches on a transient SweepPool, so both paths share one worker loop.
#pragma once

#include <functional>
#include <memory>
#include <vector>

namespace smilab {

/// Resolve a --jobs request: n >= 1 is taken as-is, anything else (0 or
/// negative, the "default" sentinel) becomes hardware concurrency.
[[nodiscard]] int effective_jobs(int requested);

/// Persistent worker pool.
///
/// Jobs are drained FIFO; completion is observable via drain(). A job that
/// throws records the first exception, which drain() (and the destructor's
/// implicit drain) rethrows — matching ExperimentSweep's first-error
/// semantics. Consumers that must not lose a worker to an exception (the
/// serve daemon) catch inside the job itself.
class SweepPool {
 public:
  explicit SweepPool(int workers);
  ~SweepPool();
  SweepPool(const SweepPool&) = delete;
  SweepPool& operator=(const SweepPool&) = delete;

  [[nodiscard]] int workers() const { return workers_; }

  /// Enqueue a job. Never blocks on job execution.
  void submit(std::function<void()> job);

  /// Block until every submitted job has completed. Rethrows the first
  /// exception thrown by a job since the last drain() (further jobs are
  /// not cancelled; cancellation policy belongs to the caller's jobs).
  void drain();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  // guarded_by(internal): Impl locks its mu
  int workers_;                 // guarded_by(init): fixed at construction
};

class ExperimentSweep {
 public:
  explicit ExperimentSweep(int jobs = 1) : jobs_(effective_jobs(jobs)) {}

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Invoke fn(i) for i in [0, cells), fanned across min(jobs, cells)
  /// threads. Blocks until every cell completes. The first exception thrown
  /// by a cell is rethrown here (remaining cells are abandoned).
  void for_each(int cells, const std::function<void(int)>& fn) const;

  /// for_each, collecting fn(i) into result[i] (deterministic grid order).
  template <typename Result>
  [[nodiscard]] std::vector<Result> map(
      int cells, const std::function<Result(int)>& fn) const {
    std::vector<Result> results(static_cast<std::size_t>(cells));
    for_each(cells, [&](int i) {
      results[static_cast<std::size_t>(i)] = fn(i);
    });
    return results;
  }

 private:
  int jobs_;
};

}  // namespace smilab
